include module type of struct include Provenance end
