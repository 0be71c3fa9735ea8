(* The storage-level redo engine for physiological logs: Figure 6's
   analysis step and redo test, shared by every page-LSN recoverer
   (the physiological method, the sharded store's eager and instant
   restarts). *)

open Redo_storage
open Redo_wal

type analysis = {
  dpt : Lsn.t array;
  horizons : Lsn.t array;
  slice : Record.t list;
  analysis_scanned : int;
}

(* A clean page's recLSN: above every real LSN, so the DPT half of
   [surely_on_disk] holds for all of its records. *)
let clean = Lsn.of_int max_int

let checkpoint log =
  match Log_manager.last_stable_checkpoint log with
  | None -> Lsn.zero, []
  | Some (lsn, { Record.dirty_pages; _ }) -> lsn, dirty_pages

(* Pages the analysis tail dirties get recLSNs at or above the tail's
   start, so the checkpoint's table alone bounds the redo start. *)
let start_of (ckpt_lsn, dirty_pages) =
  List.fold_left (fun acc (_, rec_lsn) -> min acc rec_lsn) (Lsn.next ckpt_lsn) dirty_pages

let scan_start log = start_of (checkpoint log)

(* The analysis phase (Section 4.3), ARIES style: rebuild the dirty page
   table from the checkpoint's table plus every page a later record
   touched, with that record's LSN as its conservative recLSN. The
   tables are pid-indexed arrays (the page universe is dense and known):
   the skip test runs once per scanned record on the restart open path,
   where a hash lookup per record costs milliseconds. *)
let analyze log ~pages =
  let ((ckpt_lsn, dirty_pages) as ckpt) = checkpoint log in
  let tail_start = Lsn.next ckpt_lsn in
  let dpt = Array.make pages clean in
  List.iter (fun (pid, rec_lsn) -> dpt.(pid) <- rec_lsn) dirty_pages;
  let tail = Log_manager.records_from log ~from:tail_start in
  List.iter
    (fun r ->
      match Record.payload r with
      | Record.Physiological { pid; _ } ->
        if Lsn.equal dpt.(pid) clean then dpt.(pid) <- Record.lsn r
      | _ -> ())
    tail;
  (* The redo slice extends the tail down to the oldest recLSN: the tail
     itself when the checkpoint's table holds nothing older (the common
     case), so reuse it rather than walking the log a second time. *)
  let redo_start = start_of ckpt in
  let slice =
    if Lsn.(tail_start <= redo_start) then tail
    else Log_manager.records_from log ~from:redo_start
  in
  (* [Lsn.zero] = no horizon: every real record's LSN is above it. *)
  let horizons = Array.make pages Lsn.zero in
  List.iter (fun (pid, h) -> horizons.(pid) <- h) (Log_manager.stable_shard_horizons log);
  { dpt; horizons; slice; analysis_scanned = List.length tail }

(* Two witnesses, both read-only after [analyze] and so safe to share
   across domains. A shard horizon covering the record means a shard
   checkpoint installed it; a page clean at the crash, or dirtied only
   after the record, means an ordinary flush did. *)
let surely_on_disk a ~pid ~lsn = Lsn.(lsn <= a.horizons.(pid)) || Lsn.(lsn < a.dpt.(pid))

(* The LSN redo test of Section 6.3: "If the page LSN is at least as
   high as the operation's LSN, then the operation is already installed
   and is bypassed during recovery." One [Cache.update] per redone
   record keeps the page's recLSN at its oldest unflushed record, which
   is what a checkpoint taken after recovery must record. *)
let step cache ~pid ~lsn op =
  if Lsn.(Page.lsn (Cache.read cache pid) < lsn) then begin
    Cache.update cache pid ~lsn (Page_op.apply op);
    true
  end
  else false

let unexpected payload =
  invalid_arg (Fmt.str "redo: unexpected record %a" Record.pp_payload payload)

let redo cache r =
  match Record.payload r with
  | Record.Physiological { pid; op } -> step cache ~pid ~lsn:(Record.lsn r) op
  | payload -> unexpected payload

let walk ?(progress = ignore) a cache ~owns =
  let redone = ref 0 and skipped = ref 0 and seen = ref 0 in
  List.iter
    (fun r ->
      incr seen;
      if !seen land 63 = 0 then progress !seen;
      match Record.payload r with
      | Record.Physiological { pid; op } ->
        if owns pid then begin
          let lsn = Record.lsn r in
          if surely_on_disk a ~pid ~lsn || not (step cache ~pid ~lsn op) then incr skipped
          else incr redone
        end
      | Record.Checkpoint _ | Record.Shard_checkpoint _ -> ()
      | payload -> unexpected payload)
    a.slice;
  !redone, !skipped
