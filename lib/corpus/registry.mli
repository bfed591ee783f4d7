(** The sample registry: every workload in the evaluation, with its
    expected verdict, so tests and benches iterate one authoritative
    list. *)

type category =
  | Attack of string  (** injection technique *)
  | Rat  (** Table IV non-injecting malware *)
  | Benign_app
  | Jit_applet of bool  (** native-stub applet? *)
  | Jit_ajax

type expected = Expect_flag | Expect_clean

type sample = {
  id : string;
  family : string;
  category : category;
  expected : expected;
  behaviors : Behavior.t list;
  scenario : Scenario.t;
}

val attacks : unit -> sample list
(** The six in-memory-injection samples of Section VI. *)

val transient_attacks : unit -> sample list
(** Variants whose payload unmaps itself before exiting — FAROS still flags
    them; snapshot forensics do not. *)

val evasive_attacks : unit -> sample list
(** The discussion-section taint-laundering evasion; expected verdict is
    policy-dependent, so these stay out of {!all}. *)

val extended_attacks : unit -> sample list
(** Beyond the paper's six: the full reflective-DLL form (sectioned image,
    in-guest mapping). *)

val extras : unit -> sample list
(** Extra benign workloads (DLL loading, loopback IPC); kept out of {!all}
    so the Table IV sample counts stay exactly the paper's. *)

val rats : unit -> sample list
(** The 90 non-injecting malware builds of Table IV. *)

val benign : unit -> sample list
(** The 14 benign-software builds of Table IV. *)

val jits : unit -> sample list
(** The 20 JIT workloads of Table III. *)

val netd_showcase : unit -> sample list
(** Server-side daemon samples (lib/netd): benign server under load,
    inject-through-server at 100 and 500 connections, staged C2.  Kept
    out of {!all} so the paper's sample counts stay exact. *)

val netd_sweeps : unit -> sample list
(** Traffic-generator sweep families (client count x arrival pattern x
    payload staging) — the long-job corpus for
    [faros campaign --corpus netd|full]. *)

val sweep1k : unit -> sample list
(** The generated sweep corpus ({!Sweep}): 1,093 deterministic samples
    over the behaviour matrix.  Kept out of {!all} so the core-130
    goldens stay the paper's. *)

val crash_test : unit -> sample
(** A deliberately crashing hidden sample (its boot image is never
    installed): analyzing it raises.  Kept out of {!all}; it pins the
    campaign's crash-isolation property (a raising sample must become an
    [Error] verdict instead of aborting the run). *)

val all : unit -> sample list
(** attacks + rats + benign + jits: the 130-sample evaluation set. *)

val find : string -> sample option
(** Lookup by id across every list, including transient and evasive. *)

val pp_category : category Fmt.t
