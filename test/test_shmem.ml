(* Unit + property tests for the shared-memory substrate. *)

open Cxlshm_shmem

let st () = Stats.create ()

let test_word_roundtrip () =
  let f = Word.field ~shift:10 ~bits:8 in
  let w = Word.set f 0 255 in
  Alcotest.(check int) "get back" 255 (Word.get f w);
  let g = Word.field ~shift:0 ~bits:10 in
  let w = Word.set g w 1023 in
  Alcotest.(check int) "field f intact" 255 (Word.get f w);
  Alcotest.(check int) "field g" 1023 (Word.get g w)

let test_word_bounds () =
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Word.set: value 256 does not fit in 8 bits") (fun () ->
      ignore (Word.set (Word.field ~shift:0 ~bits:8) 0 256));
  Alcotest.check_raises "field too wide"
    (Invalid_argument "Word.field: shift=60 bits=8 exceeds 62 usable bits")
    (fun () -> ignore (Word.field ~shift:60 ~bits:8))

let test_mem_basic () =
  let m = Mem.create ~words:64 () in
  let s = st () and l = Lines.create () in
  Mem.store m ~st:s ~lines:l 3 42;
  Alcotest.(check int) "load back" 42 (Mem.load m ~st:s ~lines:l 3);
  Alcotest.(check bool) "cas ok" true
    (Mem.cas m ~st:s ~lines:l 3 ~expected:42 ~desired:7);
  Alcotest.(check bool) "cas stale" false
    (Mem.cas m ~st:s ~lines:l 3 ~expected:42 ~desired:9);
  Alcotest.(check int) "after cas" 7 (Mem.load m ~st:s ~lines:l 3)

let test_mem_bounds () =
  let m = Mem.create ~words:8 () in
  let s = st () and l = Lines.create () in
  (try
     ignore (Mem.load m ~st:s ~lines:l 8);
     Alcotest.fail "expected Wild_pointer"
   with Mem.Wild_pointer { addr; words } ->
     Alcotest.(check int) "addr" 8 addr;
     Alcotest.(check int) "words" 8 words);
  (try
     ignore (Mem.store m ~st:s ~lines:l (-1) 0);
     Alcotest.fail "expected Wild_pointer"
   with Mem.Wild_pointer _ -> ())

let test_mem_bytes_roundtrip () =
  let m = Mem.create ~words:64 () in
  let s = st () and l = Lines.create () in
  let payload = Bytes.of_string "hello, CXL shared memory!" in
  Mem.write_bytes m ~st:s ~lines:l 5 payload;
  let back = Mem.read_bytes m ~st:s ~lines:l 5 ~len:(Bytes.length payload) in
  Alcotest.(check string) "roundtrip" (Bytes.to_string payload)
    (Bytes.to_string back)

let test_fetch_add () =
  let m = Mem.create ~words:8 () in
  let s = st () and l = Lines.create () in
  Alcotest.(check int) "prev 0" 0 (Mem.fetch_add m ~st:s ~lines:l 0 5);
  Alcotest.(check int) "prev 5" 5 (Mem.fetch_add m ~st:s ~lines:l 0 2);
  Alcotest.(check int) "now 7" 7 (Mem.load m ~st:s ~lines:l 0)

let test_stats_counting () =
  let m = Mem.create ~words:64 () in
  let s = st () and l = Lines.create () in
  ignore (Mem.load m ~st:s ~lines:l 0);
  (* line 0: prefetch-adjacent to the initial state -> seq *)
  ignore (Mem.load m ~st:s ~lines:l 1);
  (* same line -> seq (streaming) *)
  ignore (Mem.load m ~st:s ~lines:l 32);
  (* line 4: non-adjacent cold line -> rand *)
  ignore (Mem.load m ~st:s ~lines:l 3);
  (* back to line 0: non-adjacent but cached -> hit *)
  ignore (Mem.cas m ~st:s ~lines:l 5 ~expected:0 ~desired:1);
  (* line 0 is cached, so this is a local (hit) CAS *)
  ignore (Mem.cas m ~st:s ~lines:l 48 ~expected:0 ~desired:1);
  (* line 6 is cold: a coherence round trip *)
  Mem.fence m ~st:s;
  Mem.flush m ~st:s 0;
  Alcotest.(check int) "seq" 2 s.Stats.seq_accesses;
  Alcotest.(check int) "hit" 1 s.Stats.cache_hits;
  Alcotest.(check int) "rand" 1 s.Stats.rand_accesses;
  Alcotest.(check int) "cas cold" 1 s.Stats.cas_ops;
  Alcotest.(check int) "cas hit" 1 s.Stats.cas_hit_ops;
  Alcotest.(check int) "fence" 1 s.Stats.fences;
  Alcotest.(check int) "flush" 1 s.Stats.flushes

let test_blit_overlap () =
  (* Regression: a forward word-by-word copy corrupts when src < dst and the
     ranges overlap — blit must behave like memmove on every backend. *)
  let backends =
    [
      ("flat", Mem.Flat);
      ("striped", Mem.Striped { devices = 3; stripe_words = 5; tiers = [||] });
      ("counting", Mem.Counting_fast);
    ]
  in
  List.iter
    (fun (name, backend) ->
      let m = Mem.create ~backend ~words:64 () in
      let s = st () and l = Lines.create () in
      for i = 0 to 7 do
        Mem.store m ~st:s ~lines:l (10 + i) (100 + i)
      done;
      (* overlapping, src < dst: must copy backward *)
      Mem.blit m ~st:s ~lines:l ~src:10 ~dst:14 ~len:8;
      for i = 0 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "%s fwd-overlap word %d" name i)
          (100 + i)
          (Mem.unsafe_peek m (14 + i))
      done;
      (* overlapping, src > dst: forward copy is correct *)
      let m2 = Mem.create ~backend ~words:64 () in
      for i = 0 to 7 do
        Mem.store m2 ~st:s ~lines:l (20 + i) (200 + i)
      done;
      Mem.blit m2 ~st:s ~lines:l ~src:20 ~dst:17 ~len:8;
      for i = 0 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "%s bwd-overlap word %d" name i)
          (200 + i)
          (Mem.unsafe_peek m2 (17 + i))
      done;
      (* disjoint ranges still work *)
      let m3 = Mem.create ~backend ~words:64 () in
      for i = 0 to 3 do
        Mem.store m3 ~st:s ~lines:l i (300 + i)
      done;
      Mem.blit m3 ~st:s ~lines:l ~src:0 ~dst:40 ~len:4;
      for i = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "%s disjoint word %d" name i)
          (300 + i)
          (Mem.unsafe_peek m3 (40 + i))
      done)
    backends

let test_cache_filter () =
  let l = Lines.create () in
  Alcotest.(check bool) "first touch misses" false (Lines.touch l 7);
  Alcotest.(check bool) "second touch hits" true (Lines.touch l 7);
  (* conflict: same direct-mapped slot *)
  Alcotest.(check bool) "conflicting line evicts" false
    (Lines.touch l (7 + Lines.capacity));
  Alcotest.(check bool) "original line evicted" false (Lines.touch l 7)

let kind =
  Alcotest.of_pp (fun ppf k ->
      Format.pp_print_string ppf
        (match k with Lines.Hit -> "hit" | Seq -> "seq" | Miss -> "miss"))

(* A reset context starts exactly like a fresh one: every line cold, and
   stream detection restarted (the last line is -1 again, so line 0
   streams). *)
let test_lines_reset () =
  let l = Lines.create () in
  List.iter (fun line -> ignore (Lines.access l line)) [ 3; 4; 40; 41 ];
  Alcotest.(check kind) "warm line hits" Lines.Hit (Lines.access l 3);
  Lines.reset l;
  let fresh = Lines.create () in
  List.iter
    (fun (what, line) ->
      let want = Lines.access fresh line in
      Alcotest.(check kind) what want (Lines.access l line))
    [ ("stream restarts", 0); ("warm line went cold", 40);
      ("next line streams", 41); ("cold again", 3) ];
  Alcotest.(check bool) "touched lines cold" false (Lines.touch l 4)

let test_latency_table1 () =
  (* The model must reproduce Table 1's ordering and magnitudes. *)
  let seq_l, rand_l, cas_l = Latency.table1_mops Latency.Local_numa in
  let seq_c, rand_c, cas_c = Latency.table1_mops Latency.Cxl in
  Alcotest.(check bool) "seq local > cxl" true (seq_l > seq_c);
  Alcotest.(check bool) "rand local > cxl" true (rand_l > rand_c);
  Alcotest.(check (float 0.1)) "cas flat" cas_l cas_c;
  Alcotest.(check (float 1.0)) "local latency" 110.0
    (Latency.table1_latency_ns Latency.Local_numa);
  Alcotest.(check (float 1.0)) "cxl latency" 390.0
    (Latency.table1_latency_ns Latency.Cxl)

let test_modeled_time_monotone () =
  let s = st () in
  s.Stats.rand_accesses <- 100;
  let local = Stats.modeled_ns (Latency.of_tier Latency.Local_numa) s in
  let cxl = Stats.modeled_ns (Latency.of_tier Latency.Cxl) s in
  Alcotest.(check bool) "cxl slower" true (cxl > local)

(* Exercise *every* Stats counter through real memory traffic, so the
   round-trip checks below cover a counter the moment it exists. The striped
   two-tier pool is what drives the xdev pair. *)
let populated_stats () =
  let m =
    Mem.create ~tier:Latency.Local_numa
      ~backend:
        (Mem.Striped
           {
             devices = 2;
             stripe_words = 8;
             tiers = [| Latency.Local_numa; Latency.Cxl |];
           })
      ~words:256 ()
  in
  let s = st () and l = Lines.create () in
  ignore (Mem.load m ~st:s ~lines:l 0) (* seq *);
  ignore (Mem.load m ~st:s ~lines:l 1) (* seq *);
  ignore (Mem.load m ~st:s ~lines:l 32) (* rand *);
  ignore (Mem.load m ~st:s ~lines:l 3) (* hit *);
  ignore (Mem.cas m ~st:s ~lines:l 5 ~expected:0 ~desired:1) (* cas hit *);
  ignore (Mem.cas m ~st:s ~lines:l 48 ~expected:9 ~desired:1) (* cas cold + failure *);
  Mem.fence m ~st:s;
  Mem.flush m ~st:s 0;
  ignore (Mem.load m ~st:s ~lines:l 8) (* device 1: rand + xdev *);
  (m, s)

let check_all_counters_nonzero s =
  Alcotest.(check bool) "seq populated" true (s.Stats.seq_accesses > 0);
  Alcotest.(check bool) "rand populated" true (s.Stats.rand_accesses > 0);
  Alcotest.(check bool) "hit populated" true (s.Stats.cache_hits > 0);
  Alcotest.(check bool) "cas populated" true (s.Stats.cas_ops > 0);
  Alcotest.(check bool) "cas-hit populated" true (s.Stats.cas_hit_ops > 0);
  Alcotest.(check bool) "cas-fail populated" true (s.Stats.cas_failures > 0);
  Alcotest.(check bool) "fence populated" true (s.Stats.fences > 0);
  Alcotest.(check bool) "flush populated" true (s.Stats.flushes > 0);
  Alcotest.(check bool) "xdev populated" true (s.Stats.xdev_accesses > 0);
  Alcotest.(check bool) "xdev ns populated" true (s.Stats.xdev_ns > 0.0)

let test_stats_add_diff_roundtrip () =
  let m, s = populated_stats () in
  check_all_counters_nonzero s;
  (* acc = 0 + s + s; diff (acc) (s) must reproduce s exactly, counter for
     counter. A counter missed by add or diff breaks one of the checks:
     the per-field equality, the pp rendering, or the modeled total. *)
  let acc = Stats.create () in
  Stats.add acc s;
  Stats.add acc s;
  let d = Stats.diff acc s in
  let fields x =
    [
      x.Stats.cache_hits;
      x.Stats.seq_accesses;
      x.Stats.rand_accesses;
      x.Stats.cas_ops;
      x.Stats.cas_hit_ops;
      x.Stats.cas_failures;
      x.Stats.fences;
      x.Stats.flushes;
      x.Stats.xdev_accesses;
    ]
  in
  Alcotest.(check (list int)) "counters round-trip" (fields s) (fields d);
  Alcotest.(check (float 1e-9)) "xdev ns round-trips" s.Stats.xdev_ns d.Stats.xdev_ns;
  let render x = Format.asprintf "%a" Stats.pp x in
  Alcotest.(check string) "pp round-trips" (render s) (render d);
  let model = Mem.cost_model m in
  Alcotest.(check (float 1e-6)) "modeled time round-trips"
    (Stats.modeled_ns model s) (Stats.modeled_ns model d);
  Alcotest.(check (float 1e-6)) "add doubles modeled time"
    (2.0 *. Stats.modeled_ns model s)
    (Stats.modeled_ns model acc)

let test_stats_copy_independent () =
  let _, s = populated_stats () in
  let c = Stats.copy s in
  s.Stats.cache_hits <- s.Stats.cache_hits + 1000;
  Alcotest.(check bool) "counter copy independent" true
    (c.Stats.cache_hits <> s.Stats.cache_hits)

(* Snapshots are counter arithmetic: taking them between accesses must not
   move a single classification. The same access sequence runs twice, once
   with copy/diff/probe/add after every access and once with none. *)
let test_snapshots_leave_lines_alone () =
  let far = Lines.capacity * Mem.words_per_line (* 0's direct-mapped slot *) in
  let counts (s : Stats.t) =
    [ s.cache_hits; s.seq_accesses; s.rand_accesses; s.cas_ops; s.cas_hit_ops ]
  in
  let replay between =
    let m = Mem.create ~words:(far + 64) () in
    let s = st () and l = Lines.create () in
    let ops =
      [
        (fun () -> ignore (Mem.load m ~st:s ~lines:l 0));
        (fun () -> Mem.store m ~st:s ~lines:l 9 1);
        (fun () -> ignore (Mem.load m ~st:s ~lines:l 200));
        (fun () -> ignore (Mem.load m ~st:s ~lines:l 3));
        (fun () -> ignore (Mem.cas m ~st:s ~lines:l 5 ~expected:0 ~desired:1));
        (fun () -> ignore (Mem.fetch_add m ~st:s ~lines:l 400 1));
        (fun () -> ignore (Mem.load m ~st:s ~lines:l far));
        (fun () -> ignore (Mem.load m ~st:s ~lines:l 0));
        (fun () -> ignore (Mem.cas m ~st:s ~lines:l 400 ~expected:0 ~desired:2));
        (fun () -> Mem.fill m ~st:s ~lines:l 64 ~len:20 7);
        (fun () -> Mem.blit m ~st:s ~lines:l ~src:64 ~dst:1000 ~len:20);
        (fun () -> ignore (Mem.load m ~st:s ~lines:l 200));
      ]
    in
    let deltas =
      List.map
        (fun op ->
          let before = counts s in
          op ();
          between m s;
          List.map2 ( - ) (counts s) before)
        ops
    in
    (deltas, Format.asprintf "%a" Stats.pp s)
  in
  let acc = st () in
  let snapshot m s =
    let c = Stats.copy s in
    c.Stats.rand_accesses <- c.Stats.rand_accesses + 7;
    ignore (Stats.diff s c);
    ignore (Stats.probe_ns (Mem.cost_model m) s ~since:(Stats.probe s));
    Stats.add acc s
  in
  let quiet, quiet_total = replay (fun _ _ -> ()) in
  let snapped, snapped_total = replay snapshot in
  Alcotest.(check (list (list int))) "same classification per access" quiet
    snapped;
  Alcotest.(check string) "same counters" quiet_total snapped_total;
  (* probe_ns is modeled_ns over diff, bit for bit, with every term of the
     sum non-zero: the left-to-right order of the Table 1 terms is kept *)
  let m, s = populated_stats () in
  s.Stats.backoff_ns <- 12.5;
  let model = Mem.cost_model m in
  let t = Stats.copy s in
  Stats.add t s;
  Stats.add t s;
  let d = Stats.diff t s in
  let f = float_of_int in
  let by_hand =
    (f d.Stats.cache_hits *. model.Latency.hit_ns)
    +. (f d.Stats.seq_accesses *. model.Latency.seq_ns)
    +. (f d.Stats.rand_accesses *. model.Latency.rand_ns)
    +. (f d.Stats.cas_ops *. model.Latency.cas_ns)
    +. (f d.Stats.cas_hit_ops *. model.Latency.cas_hit_ns)
    +. d.Stats.xdev_ns
    +. (f d.Stats.fences *. model.Latency.fence_ns)
    +. (f d.Stats.flushes *. model.Latency.flush_ns)
    +. d.Stats.backoff_ns
  in
  Alcotest.(check bool) "xdev priced" true (d.Stats.xdev_ns <> 0.0);
  Alcotest.(check bool) "modeled_ns (diff) sums in Table 1 order" true
    (Float.equal by_hand (Stats.modeled_ns model d));
  Alcotest.(check bool) "probe_ns = modeled_ns (diff)" true
    (Float.equal by_hand (Stats.probe_ns model t ~since:(Stats.probe s)))

let test_striped_roundtrip () =
  (* Odd device count / stripe size / total so the last stripe is partial. *)
  let backend = Mem.Striped { devices = 3; stripe_words = 5; tiers = [||] } in
  let m = Mem.create ~backend ~words:64 () in
  let s = st () and l = Lines.create () in
  Alcotest.(check string) "name" "striped-3x5" (Mem.backend_name m);
  Alcotest.(check int) "devices" 3 (Mem.num_devices m);
  for p = 0 to 63 do
    Mem.store m ~st:s ~lines:l p (1000 + p)
  done;
  for p = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "word %d" p) (1000 + p)
      (Mem.load m ~st:s ~lines:l p)
  done;
  (* every device serves some address, and the mapping is stripe-periodic *)
  let seen = Array.make 3 false in
  for p = 0 to 63 do
    let d = Mem.device_of m p in
    seen.(d) <- true;
    Alcotest.(check int) "stripe map" (p / 5 mod 3) d
  done;
  Array.iteri
    (fun d hit -> Alcotest.(check bool) (Printf.sprintf "device %d used" d) true hit)
    seen;
  (* snapshots are in global order: restoring into a flat pool matches *)
  let flat = Mem.create ~words:64 () in
  Mem.restore flat (Mem.snapshot m);
  for p = 0 to 63 do
    Alcotest.(check int) "portable image" (1000 + p) (Mem.unsafe_peek flat p)
  done;
  (* Wild_pointer carries the same payload as on the flat backend *)
  (try
     ignore (Mem.load m ~st:s ~lines:l 64);
     Alcotest.fail "expected Wild_pointer"
   with Mem.Wild_pointer { addr; words } ->
     Alcotest.(check int) "addr" 64 addr;
     Alcotest.(check int) "words" 64 words)

let test_counting_backend () =
  let m = Mem.create ~backend:Mem.Counting_fast ~words:32 () in
  let s = st () and l = Lines.create () in
  Alcotest.(check int) "fresh count" 0 (Stats.total_accesses s);
  Mem.store m ~st:s ~lines:l 4 9;
  Alcotest.(check int) "load back" 9 (Mem.load m ~st:s ~lines:l 4);
  Alcotest.(check bool) "cas ok" true (Mem.cas m ~st:s ~lines:l 4 ~expected:9 ~desired:2);
  Alcotest.(check bool) "cas stale" false
    (Mem.cas m ~st:s ~lines:l 4 ~expected:9 ~desired:3);
  Alcotest.(check int) "fetch_add prev" 2 (Mem.fetch_add m ~st:s ~lines:l 4 5);
  Alcotest.(check int) "exactly 5 accesses" 5 (Stats.total_accesses s)

(* Backends keep no meter of their own, so every word the wrapper moves
   must reach Stats: bulk and byte operations count one access per word
   they touch, fences and flushes one each, on every backend. *)
let test_bulk_ops_metered () =
  let n = 10 and len = 20 in
  List.iter
    (fun (label, backend) ->
      let m = Mem.create ~backend ~words:256 () in
      let s = st () and l = Lines.create () in
      let check what want f =
        let before = Stats.copy s in
        f ();
        Alcotest.(check int) (label ^ ": " ^ what) want
          (Stats.total_accesses (Stats.diff s before))
      in
      check "fill" n (fun () -> Mem.fill m ~st:s ~lines:l 8 ~len:n 7);
      check "blit" (2 * n) (fun () ->
          Mem.blit m ~st:s ~lines:l ~src:8 ~dst:100 ~len:n);
      check "write_bytes" (Mem.bytes_words len) (fun () ->
          Mem.write_bytes m ~st:s ~lines:l 150 (Bytes.make len 'x'));
      check "read_bytes" (Mem.bytes_words len) (fun () ->
          ignore (Mem.read_bytes m ~st:s ~lines:l 150 ~len));
      let f0 = s.Stats.fences and fl0 = s.Stats.flushes in
      Mem.fence m ~st:s;
      Mem.flush m ~st:s 8;
      Alcotest.(check int) (label ^ ": fence") (f0 + 1) s.Stats.fences;
      Alcotest.(check int) (label ^ ": flush") (fl0 + 1) s.Stats.flushes)
    [
      ("flat", Mem.Flat);
      ( "striped",
        Mem.Striped { devices = 4; stripe_words = 16; tiers = [||] } );
      ("counting", Mem.Counting_fast);
      ("sched", Mem.Sched Mem.Flat);
    ]

let test_xdev_latency () =
  (* 2 devices, stripe 8 words: even stripes (addresses 0-7, 16-23, ...) on
     the near Local_numa device, odd stripes on the far CXL device. The same
     access pattern aimed at the far device must cost more modeled time. *)
  let m =
    Mem.create ~tier:Latency.Local_numa
      ~backend:
        (Mem.Striped
           {
             devices = 2;
             stripe_words = 8;
             tiers = [| Latency.Local_numa; Latency.Cxl |];
           })
      ~words:4096 ()
  in
  let run base =
    let s = st () and l = Lines.create () in
    let p = ref base in
    while !p < 4096 do
      ignore (Mem.load m ~st:s ~lines:l !p);
      p := !p + 16 (* stride two lines: every access random, same device *)
    done;
    s
  in
  (* start past line 0: a fresh context's first access to line 0 would
     count as sequential (its stream starts at line -1; see "lines reset") *)
  let home = run 32 and far = run 40 in
  Alcotest.(check int) "same rand volume" home.Stats.rand_accesses
    far.Stats.rand_accesses;
  Alcotest.(check int) "home pays no xdev" 0 home.Stats.xdev_accesses;
  Alcotest.(check int) "far is all xdev" far.Stats.rand_accesses
    far.Stats.xdev_accesses;
  let model = Mem.cost_model m in
  let home_ns = Stats.modeled_ns model home
  and far_ns = Stats.modeled_ns model far in
  Alcotest.(check bool) "cross-device access is dearer" true (far_ns > home_ns);
  (* the far accesses are priced exactly at the CXL tier *)
  let cxl = Latency.of_tier Latency.Cxl in
  Alcotest.(check (float 1e-6)) "far = CXL pricing"
    (float_of_int far.Stats.rand_accesses *. cxl.Latency.rand_ns)
    far_ns

(* Property: byte payloads of arbitrary content round-trip. *)
let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"mem bytes roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun payload ->
      let m = Mem.create ~words:64 () in
      let s = st () and l = Lines.create () in
      let b = Bytes.of_string payload in
      Mem.write_bytes m ~st:s ~lines:l 2 b;
      Bytes.to_string (Mem.read_bytes m ~st:s ~lines:l 2 ~len:(Bytes.length b))
      = payload)

(* Property: packing fields never bleeds between them. *)
let prop_word_fields_independent =
  QCheck.Test.make ~name:"word fields independent" ~count:500
    QCheck.(triple (int_bound 1023) (int_bound 0xFFFF) (int_bound 0xFF))
    (fun (a, b, c) ->
      let fa = Word.field ~shift:0 ~bits:10 in
      let fb = Word.field ~shift:10 ~bits:16 in
      let fc = Word.field ~shift:26 ~bits:8 in
      let w = Word.set fc (Word.set fb (Word.set fa 0 a) b) c in
      Word.get fa w = a && Word.get fb w = b && Word.get fc w = c && w >= 0)

(* Real-domain smoke: concurrent CAS from two domains never loses an
   increment. One round only — the interleaving coverage lives in the
   deterministic [test_sched_cas_bump] below. *)
let prop_cas_atomic_across_domains =
  QCheck.Test.make ~name:"cas atomic across domains" ~count:1
    QCheck.(int_range 100 1000)
    (fun n ->
      let m = Mem.create ~words:8 () in
      let bump () =
        let s = st () and l = Lines.create () in
        for _ = 1 to n do
          let rec loop () =
            let v = Mem.load m ~st:s ~lines:l 0 in
            if not (Mem.cas m ~st:s ~lines:l 0 ~expected:v ~desired:(v + 1)) then loop ()
          in
          loop ()
        done
      in
      let d1 = Domain.spawn bump and d2 = Domain.spawn bump in
      Domain.join d1;
      Domain.join d2;
      Mem.load m ~st:(st ()) ~lines:(Lines.create ()) 0 = 2 * n)

(* Property: blit behaves like memmove for any in-bounds src/dst/len,
   overlapping or not, on every backend. The model is a plain array copy
   through a scratch buffer. *)
let prop_blit_memmove =
  QCheck.Test.make ~name:"blit is memmove for any overlap" ~count:300
    QCheck.(
      pair Generators.blit_spec
        (oneofl
           [
             Mem.Flat;
             Mem.Striped { devices = 3; stripe_words = 5; tiers = [||] };
             Mem.Counting_fast;
           ]))
    (fun ((words, src, dst, len), backend) ->
      let m = Mem.create ~backend ~words () in
      let s = st () and l = Lines.create () in
      for i = 0 to words - 1 do
        Mem.store m ~st:s ~lines:l i (1000 + i)
      done;
      let model = Array.init words (fun i -> 1000 + i) in
      Array.blit model src model dst len;
      Mem.blit m ~st:s ~lines:l ~src ~dst ~len;
      let ok = ref true in
      for i = 0 to words - 1 do
        if Mem.load m ~st:s ~lines:l i <> model.(i) then ok := false
      done;
      !ok)

(* The same lost-increment race as the domain property above, but explored
   deterministically: two cooperative clients interleaved at every word
   access by the model-checking scheduler, across a fixed set of seeded
   schedules. Fails the same way the wall-clock version would if CAS (or
   the load/CAS retry loop) lost an update — without depending on the
   machine's timing. *)
let test_sched_cas_bump () =
  let module Explore = Cxlshm_check.Explore in
  let n = 4 in
  let model =
    {
      Explore.name = "cas-bump";
      make =
        (fun () ->
          let m = Mem.create ~backend:(Mem.Sched Mem.Flat) ~words:8 () in
          let bump () =
            let s = st () and l = Lines.create () in
            for _ = 1 to n do
              let rec loop () =
                let v = Mem.load m ~st:s ~lines:l 0 in
                if not (Mem.cas m ~st:s ~lines:l 0 ~expected:v ~desired:(v + 1)) then
                  loop ()
              in
              loop ()
            done
          in
          let check ~crashed:_ =
            let got = Mem.unsafe_peek m 0 in
            if got <> 2 * n then
              Alcotest.failf "lost increments: %d of %d survived" got (2 * n)
          in
          { Explore.clients = [| bump; bump |]; check });
      branch = (fun _ -> true);
    }
  in
  let r =
    Explore.random ~seed:Generators.seed ~schedules:200 ~crash:false
      ~max_steps:5_000 model
  in
  match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s (replay: %s)" f.Explore.reason
        (Cxlshm_check.Schedule.to_string f.Explore.schedule)

let suite =
  [
    Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
    Alcotest.test_case "word bounds" `Quick test_word_bounds;
    Alcotest.test_case "mem basic" `Quick test_mem_basic;
    Alcotest.test_case "mem bounds" `Quick test_mem_bounds;
    Alcotest.test_case "mem bytes roundtrip" `Quick test_mem_bytes_roundtrip;
    Alcotest.test_case "fetch_add" `Quick test_fetch_add;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "blit overlap (memmove)" `Quick test_blit_overlap;
    Alcotest.test_case "cache filter" `Quick test_cache_filter;
    Alcotest.test_case "stats add/diff roundtrip" `Quick
      test_stats_add_diff_roundtrip;
    Alcotest.test_case "stats copy independent" `Quick
      test_stats_copy_independent;
    Alcotest.test_case "snapshots leave line state alone" `Quick
      test_snapshots_leave_lines_alone;
    Alcotest.test_case "lines reset" `Quick test_lines_reset;
    Alcotest.test_case "striped backend roundtrip" `Quick test_striped_roundtrip;
    Alcotest.test_case "counting backend" `Quick test_counting_backend;
    Alcotest.test_case "bulk ops metered on every backend" `Quick
      test_bulk_ops_metered;
    Alcotest.test_case "cross-device latency" `Quick test_xdev_latency;
    Alcotest.test_case "latency table1" `Quick test_latency_table1;
    Alcotest.test_case "modeled time monotone" `Quick test_modeled_time_monotone;
    Generators.to_alcotest prop_bytes_roundtrip;
    Generators.to_alcotest prop_word_fields_independent;
    Generators.to_alcotest prop_cas_atomic_across_domains;
    Generators.to_alcotest prop_blit_memmove;
    Alcotest.test_case "cas bump under the schedule explorer" `Quick
      test_sched_cas_bump;
  ]
