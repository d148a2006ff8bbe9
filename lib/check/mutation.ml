(* The must-fail mutation table. Each row's comment says what its flag
   breaks and why its searches see it; docs/TESTING.md and the CLI point
   here instead of restating the list. *)

open Cxlshm

type mode = Exhaustive of int | Random of { seed : int; schedules : int }

type search = {
  model : string;
  capacity : int option;
  values : int option;
  rounds : int option;
  mode : mode;
  max_steps : int;
}

type row = {
  name : string;
  bug : string;
  flag : bool ref;
  reason : string option;
  searches : search list;
}

let exhaustive ?capacity ?values ?rounds ?(max_steps = 20_000) ~preemptions
    model =
  { model; capacity; values; rounds; mode = Exhaustive preemptions; max_steps }

let rows =
  [
    (* Spsc_queue.try_pop publishing the new head with no fence after the
       slot read (a regression fixed once already). Plain random search
       finds the reorder the missing fence permits, and so does every
       schedule of two values through a one-slot ring. *)
    { name = "spsc-pop"; bug = "unfenced-pop mutation";
      flag = Cxlshm_spsc.Spsc_queue.mutation_unfenced_pop; reason = None;
      searches =
        [ { model = "spsc"; capacity = None; values = None; rounds = None;
            mode = Random { seed = 1; schedules = 50 }; max_steps = 20_000 };
          exhaustive ~capacity:1 ~values:2 ~preemptions:3 "spsc" ] };
    (* Transfer.receive_batch advancing the durable head before the slots
       relink (a bug the handoff once had). One message never reuses a ring
       slot, so it takes two messages through the one-slot ring. *)
    { name = "transfer-head"; bug = "unfenced-advance mutation";
      flag = Transfer.mutation_unfenced_advance; reason = None;
      searches =
        [ exhaustive ~values:2 ~max_steps:40_000 ~preemptions:2 "transfer" ] };
    (* A ~shared:true release no longer declining the decrement from 1:
       both clients end by dropping one shared parent that holds a child,
       and the loser of the race from count 2 zeroes the parent without
       tearing the child down, so the child's count has no holder. *)
    { name = "refc-zero-shared"; bug = "refc zero-shared mutation";
      flag = Refc.mutation_zero_shared; reason = None;
      searches =
        [ exhaustive ~rounds:1 ~max_steps:40_000 ~preemptions:1 "refc" ] };
    (* The same race with the header CAS replaced by a store on every
       decrement: both releases load count 2 and store 1, so the parent
       keeps a count no holder owns. Only the last holder's decrement,
       which reads 1, may store. *)
    { name = "refc-store-shared"; bug = "refc store-shared mutation";
      flag = Refc.mutation_store_shared; reason = None;
      searches =
        [ exhaustive ~rounds:1 ~max_steps:40_000 ~preemptions:1 "refc" ] };
    (* The historical era-blind quiesce: reclamation ignoring announced
       reader eras frees a record a paused traversal still stands on, and
       the decoy allocation plants a poisoned value where the reader
       resumes. Seen through an explicit quiesce, through the bounded
       release a row-filling park runs (kv-serve-park calls no quiesce),
       under a moving update and across crash-then-recover. *)
    { name = "kv-quiesce"; bug = "era-blind quiesce mutation";
      flag = Limbo.mutation_unconditional_quiesce; reason = None;
      searches =
        List.map
          (exhaustive ~max_steps:40_000 ~preemptions:2)
          [ "kv-serve"; "kv-serve-park"; "kv-serve-move"; "kv-serve-recover" ]
    };
    (* The historical era-blind crash reap: recovery of a dead writer frees
       its parked records through the live eager path instead of orphaning
       its limbo rows for adoption. The recoverer then poisons every
       count-zero record-sized block, and the reader paused mid-bucket-walk
       reads the poison. *)
    { name = "kv-crash-reap"; bug = "era-blind crash reap";
      flag = Limbo.mutation_crash_reap; reason = Some "0xdead";
      searches =
        [ exhaustive ~max_steps:60_000 ~preemptions:1 "kv-serve-recover";
          exhaustive ~preemptions:2 "kv-serve-recover" ] };
    (* A moving put_cow releasing its RootRef right after the publishing
       swap instead of parking it: key 0 is second in its chain, so the
       displaced predecessor and the old record it links are freed under a
       reader paused on either, and the writer's poison pass plants 0xDEAD
       where the reader resumes. *)
    { name = "kv-move-unparked"; bug = "unparked-move mutation";
      flag = Cxlshm_kv.Cxl_kv.mutation_release_moved; reason = Some "0xdead";
      searches =
        [ exhaustive ~max_steps:40_000 ~preemptions:2 "kv-serve-move" ] };
    (* Recovery ignoring Swap redo records: a writer killed between the two
       stores of put_cow's count-neutral swap leaves the bucket slot on the
       old record while the parked RootRef names it too, so the drain frees
       a record the chain still links. *)
    { name = "kv-swap-skip-redo"; bug = "swap skip-redo mutation";
      flag = Recovery.mutation_skip_swap_redo; reason = None;
      searches =
        [ exhaustive ~max_steps:60_000 ~preemptions:2 "kv-serve-recover" ] };
    (* Limbo.park keeping entries volatile-only: a writer crash after its
       put_cow hands the replaced record's park reference to the rootref
       scan, which frees it under the paused reader. *)
    { name = "volatile-park"; bug = "volatile-park mutation";
      flag = Limbo.mutation_volatile_park; reason = Some "0xdead";
      searches =
        [ exhaustive ~max_steps:60_000 ~preemptions:1 "kv-serve-recover" ] };
    (* Cxl_rpc.serve_one's pointer-isolation walk skipped: the smuggled
       out-of-channel pointer reaches the handler on the very first
       schedule, since smuggling needs no preemption. *)
    { name = "rpc-skip-validate"; bug = "rpc skip-validate mutation";
      flag = Cxlshm_rpc.Cxl_rpc.mutation_skip_validate;
      reason = Some "out-of-channel pointer";
      searches = [ exhaustive ~max_steps:60_000 ~preemptions:0 "rpc-isolate" ]
    };
    (* The completion fence dropped: status published before the in-place
       output write lets the client read a stale output. One preemption
       (the handler paused between publish and write) exposes it. *)
    { name = "rpc-unfenced-status"; bug = "rpc unfenced-status mutation";
      flag = Cxlshm_rpc.Cxl_rpc.mutation_unfenced_status;
      reason = Some "completion published";
      searches = [ exhaustive ~max_steps:60_000 ~preemptions:1 "rpc-isolate" ]
    };
    (* The loan's slot return moved ahead of the call: the server advances
       the head before serving, so the client's pipelined second call
       reclaims the first call's message while its completion word is
       still pending, and the first call's finish reports the lost
       completion. No preemption is needed: the client lends as soon as
       the ring has room. *)
    { name = "rpc-early-advance"; bug = "rpc early-advance mutation";
      flag = Cxlshm_rpc.Cxl_rpc.mutation_early_advance;
      reason = Some "reclaimed before its completion";
      searches =
        [ exhaustive ~max_steps:60_000 ~preemptions:0 "rpc-isolate";
          exhaustive ~preemptions:1 "rpc-isolate" ] };
  ]

let names = List.map (fun r -> r.name) rows

let find name =
  match List.find_opt (fun r -> r.name = name) rows with
  | Some r -> r
  | None ->
      invalid_arg
        (Printf.sprintf "unknown mutation %s (have: %s)" name
           (String.concat ", " names))

let with_flag flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The search as [cxlshm explore] flags. *)
let describe s =
  let opt flag = Option.fold ~none:"" ~some:(Printf.sprintf " --%s %d" flag) in
  let mode =
    match s.mode with
    | Exhaustive p -> Printf.sprintf "exhaustive --preemptions %d" p
    | Random { seed; schedules } ->
        Printf.sprintf "random --seed %d --schedules %d" seed schedules
  in
  Printf.sprintf "--model %s --mode %s%s%s%s --max-steps %d" s.model mode
    (opt "capacity" s.capacity) (opt "values" s.values)
    (opt "rounds" s.rounds) s.max_steps

let must_fail row =
  with_flag row.flag @@ fun () ->
  List.iter
    (fun s ->
      let fail fmt =
        Printf.ksprintf
          (fun m ->
            failwith
              (Printf.sprintf "--mutate %s %s: %s" row.name (describe s) m))
          fmt
      in
      let m =
        Scenarios.find ?capacity:s.capacity ?values:s.values ?rounds:s.rounds
          s.model
      in
      let max_steps = s.max_steps in
      let r =
        match s.mode with
        | Exhaustive preemptions ->
            Explore.exhaustive ~preemptions ~crash:true ~max_steps m
        | Random { seed; schedules } ->
            Explore.random ~seed ~schedules ~crash:true ~max_steps m
      in
      match r.Explore.failure with
      | None -> fail "survived %d schedules" r.Explore.schedules
      | Some f -> (
          Option.iter
            (fun sub ->
              if not (contains f.Explore.reason sub) then
                fail "failed with %S, which lacks %S" f.Explore.reason sub)
            row.reason;
          let rr = Explore.replay m ~max_steps f.Explore.schedule in
          match rr.Explore.outcome with
          | Explore.Fail reason when reason = f.Explore.reason -> ()
          | Explore.Fail reason ->
              fail "replay failed with %S, not %S" reason f.Explore.reason
          | Explore.Pass | Explore.Diverged ->
              fail "replay of %s did not fail"
                (Schedule.to_string f.Explore.schedule)))
    row.searches
