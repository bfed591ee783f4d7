(* The machine's two switches, the process-wide defaults that
   [Machine.create] reads once: run [f] with the TB cache set to [tb] and
   the DIFT fast path to [fast] for every machine it creates, then restore
   both. *)
let with_defaults ~tb ~fast f =
  let open Faros_vm.Machine in
  let saved_tb = !tb_default_enabled
  and saved_fast = !dift_fast_default_enabled in
  tb_default_enabled := tb;
  dift_fast_default_enabled := fast;
  Fun.protect
    ~finally:(fun () ->
      tb_default_enabled := saved_tb;
      dift_fast_default_enabled := saved_fast)
    f
