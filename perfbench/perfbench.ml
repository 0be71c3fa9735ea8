(* The repository benchmark: three workloads over the sharded KV service
   (1 shard, Inline group commit, one client domain, closed loop).

     perfbench --workload ingest|lookup|restart --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 the
   per-layer ladder, timed from outside around calls into each layer's
   public functions plus the counters and Oplat stage report the
   program keeps. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. Every check that fails is
   counted in [failed] and makes [correct] false. README.md next to this
   file defines each metric. *)

module SS = Redo_kv.Sharded_store
module LM = Redo_wal.Log_manager
module GC = Redo_wal.Group_commit
module Codec = Redo_wal.Codec
module Record = Redo_wal.Record
module Stable_log = Redo_wal.Stable_log
module Mailbox = Redo_par.Mailbox
module Cache = Redo_storage.Cache
module Disk = Redo_storage.Disk
module Lsn = Redo_storage.Lsn
module Lazy_redo = Redo_restart.Lazy_redo
module Metrics = Redo_obs.Metrics
module Oplat = Redo_obs.Oplat
module Zipf = Redo_workload.Zipf
module Kv_layout = Redo_methods.Kv_layout
module Theory_check = Redo_methods.Theory_check

(* One owner domain and an Inline committer: with the client that makes
   two domains, one per core of a 2-core machine. More domains than cores
   measure the scheduler instead of the store, and in OCaml 5 every
   domain, idle or not, takes part in each stop-the-world minor
   collection. *)
let shards = 1
let commit_mode = GC.Inline

(* A 32 MB minor heap per domain (the default is 2 MB) cuts the number of
   stop-the-world minor collections sixteenfold. Domains take their minor
   heap size from OCAMLRUNPARAM when they start, so the program sets it
   and runs itself again. *)
let minor_heap_words = 4 * 1024 * 1024

let () =
  if (Gc.get ()).minor_heap_size <> minor_heap_words
     && Sys.getenv_opt "PERFBENCH_REEXEC" = None
  then begin
    let param = Printf.sprintf "s=%d" minor_heap_words in
    let param =
      match Sys.getenv_opt "OCAMLRUNPARAM" with
      | Some p when p <> "" -> p ^ "," ^ param
      | _ -> param
    in
    Unix.putenv "OCAMLRUNPARAM" param;
    Unix.putenv "PERFBENCH_REEXEC" "1";
    Unix.execv Sys.executable_name Sys.argv
  end

(* Monotonic nanoseconds, as seconds: gettimeofday's microsecond grain
   would quantize the ~20 us get latencies. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- arguments ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload ingest|lookup|restart --seed N --seconds S --trace 0|1";
  exit 2

let args =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name = match Hashtbl.find_opt args name with Some v -> v | None -> usage ()
let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage ()
let workload = arg "workload"
let seed = int_arg "seed"
let seconds = float (int_arg "seconds")

let trace =
  match int_arg "trace" with 0 -> false | 1 -> true | _ -> usage ()

let () =
  if seconds <= 0. then usage ();
  if not (List.mem workload [ "ingest"; "lookup"; "restart" ]) then usage ()

let rng tag = Random.State.make [| seed; Hashtbl.hash workload; tag |]

(* ---- checks --------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail name =
  incr failed;
  Printf.eprintf "perfbench: check failed: %s\n%!" name

let check name ok =
  incr attempted;
  if not ok then fail name

let check_cert label cert =
  check
    (Format.asprintf "%s: %a" label Theory_check.pp_certificate cert)
    (Theory_check.certificate_ok cert)

(* ---- metric output -------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []

let e2e_names =
  [ "ops_per_s"; "op_p50_us"; "op_p90_us"; "ttfo_ms"; "ttfr_ms"; "eager_ttfr_ms";
    "log_bytes_per_op"; "setup_s" ]
let report name unit value = metrics := (name, value, unit) :: !metrics

(* Report the median of [samples] (times [scale]) and print its
   quartiles and sample count on an informational line. *)
let report_median name unit ?(scale = 1.) samples =
  let m = Stats.median samples *. scale in
  if Array.length samples >= 2 then begin
    let q1, _, q3 = Stats.quartiles samples in
    Printf.printf "# %s median %.6g q1 %.6g q3 %.6g n %d\n" name m (q1 *. scale) (q3 *. scale)
      (Array.length samples)
  end;
  report name unit m

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit_result () =
  let body =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed (String.concat ", " body)

(* ---- timing helpers ------------------------------------------------- *)

(* Collect the previous segment's garbage before the next timed one, so
   each starts from the same heap instead of paying for its
   predecessor's sweep. *)
let settle () = Gc.full_major ()

let push cell v = cell := v :: !cell

let time f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

(* Median seconds of [runs] calls of [f]. *)
let median_time ~runs f = Stats.median (Array.init runs (fun _ -> snd (time f)))

(* Median ns per item of a batch loop: [f] processes [items] items, run
   at least [rounds] times and for at least [min_s] seconds. *)
let ns_per_item ?(rounds = 5) ?(min_s = 0.2) ~items f =
  let samples = ref [] and spent = ref 0. and n = ref 0 in
  while !n < rounds || !spent < min_s do
    let (), dt = time f in
    samples := (dt *. 1e9 /. float items) :: !samples;
    spent := !spent +. dt;
    incr n
  done;
  Stats.median (Array.of_list !samples)

(* ---- workload streams ----------------------------------------------- *)

(* Op kinds in a pre-generated stream. Generated during set-up, so key
   sampling and formatting never run under the clock. *)
let k_put = 0
let k_delete = 1
let k_get = 2

type stream = { kinds : int array; keys : string array; values : string array }

let values = Array.init 256 (Printf.sprintf "value%03d")

let zipf_stream ~theta ~keys ~ops r =
  let z = Zipf.create ~theta keys in
  let kinds = Array.init ops (fun _ -> if Random.State.int r 10 = 0 then k_delete else k_put) in
  let ks = Array.init ops (fun _ -> Zipf.sample_key z r) in
  let vs = Array.init ops (fun _ -> values.(Random.State.int r 256)) in
  z, { kinds; keys = ks; values = vs }

let commit_every = 512

(* The client's own model of the store's contents. *)
let model_apply model kind key value =
  if kind = k_put then Hashtbl.replace model key value
  else if kind = k_delete then Hashtbl.remove model key

let sorted_model model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check_dump label store model =
  check (label ^ ": store contents equal the client's model") (SS.dump store = sorted_model model)

(* The write loop shared by ingest rounds and the restart
   set-up load: puts and deletes, a durable commit barrier every
   [commit_every] ops. Returns client ops issued. *)
let drive_writes ?commit_lat store model s =
  let n = Array.length s.kinds in
  for i = 0 to n - 1 do
    let key = s.keys.(i) in
    if s.kinds.(i) = k_delete then SS.delete store key else SS.put store key s.values.(i);
    model_apply model s.kinds.(i) key s.values.(i);
    if (i + 1) mod commit_every = 0 then begin
      let t0 = now () in
      LM.await (SS.put_durable store key "commit");
      (match commit_lat with Some l -> l := (now () -. t0) :: !l | None -> ());
      Hashtbl.replace model key "commit"
    end
  done;
  n + (n / commit_every)

let create_store ~partitions ~cache_capacity =
  SS.create ~shards ~partitions ~cache_capacity ~commit_mode ()

(* ---- per-layer counters --------------------------------------------- *)

let counter name = Metrics.count (Metrics.counter name)

type counts = { ops : int; deltas : (string * int) list }

let counter_names =
  [
    "wal.forces"; "wal.records_forced"; "wal.group.batches"; "wal.group.forces_saved";
    "cache.hits"; "cache.misses"; "cache.evictions_dirty";
  ]

let snap () = List.map (fun n -> n, counter n) counter_names

(* Counter movement over the measured op phases, summed. *)
let phase_counts = ref { ops = 0; deltas = List.map (fun n -> n, 0) counter_names }

let count_phase ~ops before =
  let after = snap () in
  phase_counts :=
    {
      ops = !phase_counts.ops + ops;
      deltas =
        List.map
          (fun (n, v) -> n, v + List.assoc n after - List.assoc n before)
          !phase_counts.deltas;
    }

let histogram_p50 name =
  let h = Metrics.histogram name in
  if Metrics.events h = 0 then 0. else Metrics.percentile_interp h 50.

let report_counters () =
  let c = !phase_counts in
  let v n = float (List.assoc n c.deltas) in
  let per_kop x = if c.ops = 0 then 0. else x *. 1000. /. float c.ops in
  let ratio a b = if b = 0. then 0. else a /. b in
  report "wal.forces_per_kop" "count" (per_kop (v "wal.forces"));
  report "wal.force_p50_us" "us" (histogram_p50 "wal.force_ns" /. 1e3);
  report "group_commit.records_per_force" "count" (ratio (v "wal.records_forced") (v "wal.forces"));
  report "group_commit.forces_saved_share" "ratio"
    (ratio (v "wal.group.forces_saved") (v "wal.group.forces_saved" +. v "wal.group.batches"));
  report "group_commit.wait_p50_us" "us" (histogram_p50 "wal.group.wait_ns" /. 1e3);
  report "kv.shard.queue_depth_p50" "count" (histogram_p50 "kv.shard.queue_depth");
  report "cache.hit_ratio" "ratio" (ratio (v "cache.hits") (v "cache.hits" +. v "cache.misses"));
  report "cache.evictions_dirty_per_kop" "count" (per_kop (v "cache.evictions_dirty"))

(* The Oplat stage report of the traced op phases (1 in 32 sampled). *)
let report_oplat () =
  let r = Oplat.report () in
  List.iter
    (fun (sv : Oplat.stage_view) ->
      let ok p = Stats.tail_rank_ok ~n:sv.sv_events p in
      report (Printf.sprintf "oplat.%s_p50_us" sv.sv_name) "us"
        (if ok 50. then sv.sv_p50_ns /. 1e3 else 0.);
      report (Printf.sprintf "oplat.%s_p99_us" sv.sv_name) "us"
        (if ok 99. then sv.sv_p99_ns /. 1e3 else 0.))
    r.r_stages;
  report "oplat.coverage" "ratio" r.r_coverage;
  report "oplat.sampled" "count" (float r.r_completed);
  (* The bound `redo lat` enforces: stage sums must cover 90% of e2e. *)
  check
    (Printf.sprintf "oplat.coverage %.3f >= 0.9 over %d sampled ops" r.r_coverage r.r_completed)
    (r.r_completed > 0 && r.r_coverage >= 0.9)

let with_oplat on f =
  if on then begin
    Oplat.set_sample_every 32;
    Oplat.set_enabled true
  end;
  Fun.protect ~finally:(fun () -> Oplat.set_enabled false) f

(* ---- layer micro-ladder ---------------------------------------------- *)

(* Each layer's public entry points timed in isolation on the
   workload's own log records and page sequence. *)
let layer_ladder ~records ~log ~pids ~cache_capacity =
  let records = Array.of_list records in
  let n = Array.length records in
  let encoded = Array.map Codec.encode_record records in
  report "codec.encode_ns" "ns"
    (ns_per_item ~items:n (fun () -> Array.iter (fun r -> ignore (Codec.encode_record r)) records));
  report "codec.decode_ns" "ns"
    (ns_per_item ~items:n (fun () -> Array.iter (fun s -> ignore (Codec.decode_record s)) encoded));
  report "codec.bytes_per_record" "B"
    (float (Array.fold_left (fun acc s -> acc + String.length s) 0 encoded) /. float n);
  let bytes = Array.fold_left (fun acc s -> acc + String.length s + 8) 0 encoded in
  report "stable_log.append_ns" "ns"
    (ns_per_item ~items:n (fun () ->
         let sl = Stable_log.create ~capacity:bytes () in
         Array.iter (fun s -> ignore (Stable_log.append sl s)) encoded));
  report "stable_log.scan_ms" "ms"
    (median_time ~runs:5 (fun () -> ignore (Stable_log.scan (LM.medium log))) *. 1e3);
  let payloads = Array.map Record.payload records in
  report "log_manager.append_ns" "ns"
    (ns_per_item ~items:n (fun () ->
         let lm = LM.create ~capacity:n () in
         Array.iter (fun p -> ignore (LM.append lm p)) payloads));
  let tail_start =
    match LM.last_stable_checkpoint log with
    | None -> Lsn.of_int 1
    | Some (lsn, _) -> Lsn.next lsn
  in
  report "log_manager.records_from_ms" "ms"
    (median_time ~runs:5 (fun () -> ignore (LM.records_from log ~from:tail_start)) *. 1e3);
  report "group_commit.commit_ns" "ns"
    (ns_per_item ~items:n (fun () ->
         let lm = LM.create ~capacity:n () in
         let gc = GC.create ~mode:GC.Inline lm in
         Array.iter (fun p -> ignore (GC.commit gc p)) payloads;
         GC.detach gc));
  let mb = Mailbox.create ~name:"perfbench.mailbox" () in
  let posts = 100_000 in
  report "mailbox.post_ns" "ns"
    (ns_per_item ~items:posts (fun () ->
         for _ = 1 to posts do
           Mailbox.post mb ignore
         done));
  Mailbox.drain mb;
  let rtts =
    Array.init 20_000 (fun _ -> snd (time (fun () -> Mailbox.Ticket.await (Mailbox.call mb ignore))))
  in
  Mailbox.close mb;
  report "mailbox.call_rtt_us" "us" (Stats.median rtts *. 1e6);
  (* The owner's page sequence at its cache capacity. *)
  let np = Array.length pids in
  let fresh_cache () = Cache.create ~capacity:cache_capacity (Disk.create ()) in
  report "cache.read_ns" "ns"
    (ns_per_item ~items:np (fun () ->
         let c = fresh_cache () in
         Array.iter (fun pid -> ignore (Cache.read c pid)) pids));
  report "cache.update_ns" "ns"
    (ns_per_item ~items:np (fun () ->
         let c = fresh_cache () in
         Array.iteri (fun i pid -> Cache.update c pid ~lsn:(Lsn.of_int (i + 1)) Fun.id) pids))

(* ---- restart cycles ---------------------------------------------------- *)

type cycle = {
  ttfo : float;
  ttfr : float;
  eager_ttfr : float;
  (* phases, each a separate stamp pair around one public call *)
  scan : float;
  open_ : float;
  first_get : float;
  drain : float;
  eager_scan : float;
  eager_redo : float;
  eager_first_get : float;
  gets : float array;  (* the hot gets issued while pages were queued *)
  queued : int;
  demand : int;
  swept : int;
  redone : int;
  scanned : int;
  eager_redone : int;
  eager_scanned : int;
}

let hot_gets = 16

(* One iteration on the same stable log: an instant restart served
   straight after analysis, then an eager one. The clock starts at
   [crash], which performs the restore scan of the stable log. *)
let restart_cycle ~certify store model hot =
  let get key =
    incr attempted;
    if SS.get store key <> Hashtbl.find_opt model key then fail ("get after restart: " ^ key)
  in
  settle ();
  let stats0 = SS.stats store in
  let t0 = now () in
  SS.crash store;
  let t1 = now () in
  let t1' = now () in
  let r = SS.recover ~mode:`Instant store in
  let t2 = now () in
  let queued = SS.recovery_pending store in
  let t2' = now () in
  get hot.(0);
  let t3 = now () in
  let t3' = now () in
  let gets =
    Array.map
      (fun key ->
        let g0 = now () in
        get key;
        now () -. g0)
      hot
  in
  let demand, swept = SS.await_recovery store in
  let t5 = now () in
  let stats1 = SS.stats store in
  if certify then check_cert "instant restart" (SS.certify store ~phase:`Recovered);
  let e0 = now () in
  SS.crash store;
  let e1 = now () in
  let e1' = now () in
  let er = SS.recover store in
  let e2 = now () in
  let e2' = now () in
  get hot.(0);
  let e3 = now () in
  if certify then check_cert "eager restart" (SS.certify store ~phase:`Recovered);
  {
    ttfo = t3 -. t0;
    ttfr = t5 -. t0;
    eager_ttfr = e3 -. e0;
    scan = t1 -. t0;
    open_ = t2 -. t1';
    first_get = t3 -. t2';
    drain = t5 -. t3';
    eager_scan = e1 -. e0;
    eager_redo = e2 -. e1';
    eager_first_get = e3 -. e2';
    gets;
    queued;
    demand;
    swept;
    redone = stats1.records_redone - stats0.records_redone;
    scanned = r.scanned;
    eager_redone = er.redone;
    eager_scanned = er.scanned;
  }

(* Cycles for [budget] seconds, and at least 7: enough timed hot gets
   (16 a cycle) for their p90 to resolve. The first cycle certifies both
   restarts. *)
let restart_cycles ~budget store model hot =
  let t0 = now () in
  let cycles = ref [] and n = ref 0 in
  while !n < 7 || now () -. t0 < budget do
    push cycles (restart_cycle ~certify:(!n = 0) store model hot);
    incr n
  done;
  Array.of_list (List.rev !cycles)

let med f cycles = Stats.median (Array.map f cycles)

(* Per cycle, the phases add up to ttfo, ttfr and eager_ttfr up to the
   glue between stamps; the worst cycle's share of each is the gap. *)
let phase_gaps cycles =
  let gap total parts = Float.abs (total -. parts) /. total in
  let worst f = Array.fold_left (fun acc c -> Float.max acc (f c)) 0. cycles in
  ( worst (fun c -> gap c.ttfo (c.scan +. c.open_ +. c.first_get)),
    worst (fun c -> gap c.ttfr (c.scan +. c.open_ +. c.first_get +. c.drain)),
    worst (fun c -> gap c.eager_ttfr (c.eager_scan +. c.eager_redo +. c.eager_first_get)) )

(* The restart metrics and the checks every run makes on its cycles.
   [invariant]: the cache holds every page, so no redo evicts and every
   cycle must replay exactly the same slice. *)
let report_restart_e2e ~invariant cycles =
  report_median "ttfo_ms" "ms" ~scale:1e3 (Array.map (fun c -> c.ttfo) cycles);
  report_median "ttfr_ms" "ms" ~scale:1e3 (Array.map (fun c -> c.ttfr) cycles);
  report_median "eager_ttfr_ms" "ms" ~scale:1e3 (Array.map (fun c -> c.eager_ttfr) cycles);
  let ttfo_gap, ttfr_gap, eager_gap = phase_gaps cycles in
  check
    (Printf.sprintf "restart phases add up (worst gaps %.3f%% %.3f%% %.3f%%, bound 5%%)"
       (ttfo_gap *. 100.) (ttfr_gap *. 100.) (eager_gap *. 100.))
    (Float.max ttfo_gap (Float.max ttfr_gap eager_gap) <= 0.05);
  if invariant then begin
    let c0 = cycles.(0) in
    check "restart iterations replay the same slice"
      (Array.for_all
         (fun c ->
           c.redone = c0.redone && c.scanned = c0.scanned && c.eager_redone = c0.eager_redone
           && c.eager_scanned = c0.eager_scanned)
         cycles)
  end

let report_restart_ladder ~log ~partitions cycles =
  let ms f = med f cycles *. 1e3 in
  report "restart.log_scan_ms" "ms" (ms (fun c -> c.scan));
  report "restart.open_ms" "ms" (ms (fun c -> c.open_));
  report "restart.first_get_us" "us" (med (fun c -> c.first_get) cycles *. 1e6);
  report "restart.drain_ms" "ms" (ms (fun c -> c.drain));
  report "restart.eager_log_scan_ms" "ms" (ms (fun c -> c.eager_scan));
  report "restart.eager_redo_ms" "ms" (ms (fun c -> c.eager_redo));
  report "restart.eager_first_get_us" "us" (med (fun c -> c.eager_first_get) cycles *. 1e6);
  let ttfo_gap, ttfr_gap, eager_gap = phase_gaps cycles in
  report "restart.ttfo_gap_pct" "%" (ttfo_gap *. 100.);
  report "restart.ttfr_gap_pct" "%" (ttfr_gap *. 100.);
  report "restart.eager_gap_pct" "%" (eager_gap *. 100.);
  report "lazy_redo.pages_queued" "count" (med (fun c -> float c.queued) cycles);
  report "lazy_redo.demand_drains" "count" (med (fun c -> float c.demand) cycles);
  report "lazy_redo.sweeper_drains" "count" (med (fun c -> float c.swept) cycles);
  report "restart.redone_share" "ratio"
    (med (fun c -> if c.scanned = 0 then 0. else float c.redone /. float c.scanned) cycles);
  (* Analysis and plan in isolation on the same stable log: the parts of
     restart.open_ms the restart's own calls cannot separate. *)
  let analysis () =
    let ckpt = LM.last_stable_checkpoint log in
    let tail_start, dpt0 =
      match ckpt with
      | None -> Lsn.of_int 1, []
      | Some (lsn, c) -> Lsn.next lsn, c.Record.dirty_pages
    in
    let dpt = Array.make partitions None in
    List.iter (fun (pid, l) -> dpt.(pid) <- Some l) dpt0;
    let tail = LM.records_from log ~from:tail_start in
    List.iter
      (fun r ->
        match Record.payload r with
        | Record.Physiological { pid; _ } ->
          if dpt.(pid) = None then dpt.(pid) <- Some (Record.lsn r)
        | _ -> ())
      tail;
    dpt, tail
  in
  report "restart.analysis_ms" "ms" (median_time ~runs:5 (fun () -> ignore (analysis ())) *. 1e3);
  let dpt, tail = analysis () in
  let horizons = Array.make partitions Lsn.zero in
  List.iter (fun (pid, h) -> horizons.(pid) <- h) (LM.stable_shard_horizons log);
  let surely_on_disk ~pid ~lsn =
    Lsn.(lsn <= horizons.(pid))
    || match dpt.(pid) with None -> true | Some rec_lsn -> Lsn.(lsn < rec_lsn)
  in
  report "lazy_redo.plan_ms" "ms"
    (median_time ~runs:5 (fun () -> ignore (Lazy_redo.plan ~shards ~surely_on_disk tail)) *. 1e3)

(* ---- set-up and shared reporting ------------------------------------ *)

(* Set-up runs [setups] times and the median is setup_s; the last
   set-up's state is the one measured. Each set-up's state is torn down
   before the next starts, so no set-up shares the machine with the idle
   domains of an earlier one. *)
let setups = 9

let repeat_setup ~teardown f =
  let times = ref [] and last = ref None in
  for i = 1 to setups do
    Option.iter teardown !last;
    settle ();
    let v, dt = time (fun () -> f i) in
    times := dt :: !times;
    last := Some v
  done;
  report_median "setup_s" "s" (Array.of_list !times);
  Option.get !last

(* [rates] are per-segment throughputs; [lat] the blocking op's
   latencies in seconds. *)
let report_ops ~rates ~lat =
  report_median "ops_per_s" "1/s" (Array.of_list rates);
  let lat = Array.of_list lat in
  report_median "op_p50_us" "us" ~scale:1e6 lat;
  match Stats.windowed_tail lat 90. with
  | Some v -> report "op_p90_us" "us" (v *. 1e6)
  | None ->
    check (Printf.sprintf "op_p90_us resolved (%d samples)" (Array.length lat)) false;
    report "op_p90_us" "us" 0.

(* Every logged op appends one record. *)
let report_log_bytes store =
  let st = LM.stats (SS.log store) in
  report "log_bytes_per_op" "B" (float st.appended_bytes /. float st.appended_records)

let report_trace ~untraced ~traced ~store ~partitions ~cycles ~pids ~cache_capacity =
  let off = Stats.median (Array.of_list untraced) in
  report "trace.overhead_pct" "%" ((off -. Stats.median (Array.of_list traced)) /. off *. 100.);
  report_counters ();
  report_oplat ();
  report_restart_ladder ~log:(SS.log store) ~partitions cycles;
  layer_ladder ~records:(LM.stable_records (SS.log store)) ~log:(SS.log store) ~pids
    ~cache_capacity

(* ---- ingest --------------------------------------------------------- *)

(* Rounds of one fixed op stream, each on a fresh store, each followed by
   one restart cycle of the log it left: every metric samples the whole
   run, so drift in the machine's speed lands on all of them alike. *)
let ingest () =
  let keys = 100_000 and round_ops = 100_000 and partitions = 8192 in
  (* The cache holds every page: no eviction, no read miss. *)
  let cache_capacity = partitions in
  let z, s =
    repeat_setup ~teardown:ignore (fun _ ->
        zipf_stream ~theta:0.99 ~keys ~ops:round_ops (rng 1))
  in
  let hot = Array.init hot_gets (Zipf.key z) in
  let rates = ref [] and traced_rates = ref [] and lat = ref [] and cycles = ref [] in
  let last = ref None and round = ref 0 in
  let t_start = now () in
  while Option.is_none !last do
    let store = create_store ~partitions ~cache_capacity in
    let model = Hashtbl.create keys in
    (* Traced runs alternate untraced and traced rounds, so the overhead
       pair shares the machine's drift. *)
    let traced = trace && !round land 1 = 1 in
    settle ();
    let before = snap () in
    let ops, dt =
      with_oplat traced (fun () ->
          time (fun () ->
              let ops = drive_writes ~commit_lat:lat store model s in
              SS.sync store;
              ops))
    in
    if trace then count_phase ~ops before;
    push (if traced then traced_rates else rates) (float ops /. dt);
    if !round = 0 then begin
      check_cert "ingest live" (SS.certify store ~phase:`Live);
      check_dump "ingest" store model
    end;
    (* The restart this workload's log costs: no checkpoint, so the
       whole log is the redo tail. *)
    push cycles (restart_cycle ~certify:(!round = 0) store model hot);
    incr round;
    (* Only one store's domains are alive at a time: idle domains still
       take part in every stop-the-world minor collection. *)
    if !round < 5 || now () -. t_start < seconds then SS.close store
    else last := Some store
  done;
  let store = Option.get !last in
  let cycles = Array.of_list (List.rev !cycles) in
  report_ops ~rates:!rates ~lat:!lat;
  report_log_bytes store;
  report_restart_e2e ~invariant:true cycles;
  if trace then
    report_trace ~untraced:!rates ~traced:!traced_rates ~store ~partitions ~cycles
      ~pids:(Array.map (Kv_layout.locate ~partitions) s.keys)
      ~cache_capacity;
  SS.close store

(* ---- lookup --------------------------------------------------------- *)

let lookup () =
  let keys = 65_536 and partitions = 4096 and cache_capacity = 256 in
  (* Data pages = 4096 = 16 x the cache capacity. *)
  let stream_ops = 1 lsl 20 in
  let key_names = Array.init keys (Printf.sprintf "user%06d") in
  let r = rng 2 in
  let kinds = Array.init stream_ops (fun _ -> if Random.State.int r 10 = 0 then k_put else k_get) in
  let idx = Array.init stream_ops (fun _ -> Random.State.int r keys) in
  let vals = Array.init stream_ops (fun _ -> values.(Random.State.int r 256)) in
  let prefill () =
    let store = create_store ~partitions ~cache_capacity in
    let model = Hashtbl.create keys in
    Array.iteri
      (fun i key ->
        let v = values.(i land 255) in
        SS.put store key v;
        Hashtbl.replace model key v)
      key_names;
    SS.sync store;
    store, model
  in
  (* Two loaded stores: one serves the get/put stream, the other only
     restarts, so every restart replays the same loaded log while the
     cycles still interleave with the stream across the whole run. *)
  let (store, model), (loaded, loaded_model) =
    repeat_setup
      ~teardown:(fun ((a, _), (b, _)) -> SS.close a; SS.close b)
      (fun _ ->
        let serving = prefill () in
        serving, prefill ())
  in
  let hot = Array.init hot_gets (fun i -> key_names.(i * (keys / hot_gets))) in
  let chunk = 8192 in
  let rates = ref [] and traced_rates = ref [] and lat = ref [] and cycles = ref [] in
  let pos = ref 0 and nchunk = ref 0 in
  let t_start = now () in
  while !nchunk < 8 || now () -. t_start < seconds || List.length !cycles < 5 do
    (* Traced runs alternate groups of four chunks, so traced and
       untraced chunks each include the one right after a restart. *)
    let traced = trace && !nchunk land 4 = 4 in
    settle ();
    let before = snap () in
    let (), dt =
      with_oplat traced (fun () ->
          time (fun () ->
              for _ = 1 to chunk do
                let i = !pos in
                pos := (i + 1) land (stream_ops - 1);
                let key = key_names.(idx.(i)) in
                if kinds.(i) = k_get then begin
                  let t0 = now () in
                  let v = SS.get store key in
                  push lat (now () -. t0);
                  (* Per-key mailbox FIFO order gives read-your-writes. *)
                  if v <> Hashtbl.find_opt model key then
                    fail ("lookup get " ^ key ^ " returns the last value written")
                end
                else begin
                  SS.put store key vals.(i);
                  Hashtbl.replace model key vals.(i)
                end
              done;
              SS.sync store))
    in
    if trace then count_phase ~ops:chunk before;
    push (if traced then traced_rates else rates) (float chunk /. dt);
    (* About 30% of the run restarts: the loaded data set's redo goes
       through the small cache, so it evicts as it goes. *)
    if !nchunk land 3 = 3 then
      push cycles (restart_cycle ~certify:(!nchunk = 3) loaded loaded_model hot);
    incr nchunk
  done;
  let cycles = Array.of_list (List.rev !cycles) in
  (* Every get was compared with the model above. *)
  attempted := !attempted + List.length !lat;
  report_ops ~rates:!rates ~lat:!lat;
  report_log_bytes store;
  (* Eviction during redo moves the disk on, so cycles need not replay
     the same slice. *)
  report_restart_e2e ~invariant:false cycles;
  check_cert "lookup live" (SS.certify store ~phase:`Live);
  check_dump "lookup" store model;
  if trace then
    report_trace ~untraced:!rates ~traced:!traced_rates ~store:loaded ~partitions ~cycles
      ~pids:(Array.map (fun i -> Kv_layout.locate ~partitions key_names.(i)) idx)
      ~cache_capacity;
  SS.close store;
  SS.close loaded

(* ---- restart -------------------------------------------------------- *)

let sub_stream s pos len =
  { kinds = Array.sub s.kinds pos len; keys = Array.sub s.keys pos len;
    values = Array.sub s.values pos len }

let restart () =
  let keys = 10_000 and load_ops = 40_000 and partitions = 256 in
  let cache_capacity = partitions in
  let z, s = zipf_stream ~theta:0.99 ~keys ~ops:load_ops (rng 3) in
  let half = load_ops / 2 in
  let first = sub_stream s 0 half and second = sub_stream s half (load_ops - half) in
  let load_rates = ref [] and traced_rates = ref [] in
  let store, model =
    repeat_setup ~teardown:(fun (st, _) -> SS.close st) (fun i ->
        (* Traced runs trace every other load, for the overhead pair. *)
        let traced = trace && i land 1 = 0 in
        let store = create_store ~partitions ~cache_capacity in
        let model = Hashtbl.create keys in
        let before = snap () in
        let ops, dt =
          with_oplat traced (fun () ->
              time (fun () ->
                  let a = drive_writes store model first in
                  (* Half the log becomes a redo tail past this checkpoint. *)
                  ignore (SS.checkpoint_sharded store);
                  let b = drive_writes store model second in
                  SS.sync store;
                  a + b))
        in
        if trace then count_phase ~ops before;
        push (if traced then traced_rates else load_rates) (float ops /. dt);
        store, model)
  in
  check_cert "restart load live" (SS.certify store ~phase:`Live);
  let hot = Array.init hot_gets (Zipf.key z) in
  let cycles = restart_cycles ~budget:seconds store model hot in
  (* Client ops are the cycle's gets, first ones included; the clock is
     the two restarts they wait on, from each crash to its last get. *)
  let gets_per_cycle = hot_gets + 2 in
  report_ops
    ~rates:
      (Array.to_list
         (Array.map (fun c -> float gets_per_cycle /. (c.ttfr +. c.eager_ttfr)) cycles))
    ~lat:(Array.to_list (Array.concat (Array.to_list (Array.map (fun c -> c.gets) cycles))));
  report_log_bytes store;
  report_restart_e2e ~invariant:true cycles;
  if trace then
    report_trace ~untraced:!load_rates ~traced:!traced_rates ~store ~partitions ~cycles
      ~pids:(Array.map (Kv_layout.locate ~partitions) s.keys)
      ~cache_capacity;
  SS.close store

(* ---- main ----------------------------------------------------------- *)

let () =
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%d cores=%d domains=%d shards=%d minor_heap_words=%d\n%!"
    workload seed seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    (* client + shard owners (+ the sweeper during an instant restart) *)
    (1 + shards) shards (Gc.get ()).minor_heap_size;
  Oplat.set_enabled false;
  (match workload with
  | "ingest" -> ingest ()
  | "lookup" -> lookup ()
  | _ -> restart ());
  (* A traced run reports the ladder only: its end-to-end figures carry
     the tracing overhead. *)
  metrics := List.filter (fun (n, _, _) -> List.mem n e2e_names <> trace) !metrics;
  emit_result ()
