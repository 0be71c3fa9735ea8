(* The stable log medium: an append-only byte sequence of frames

     [ u32 payload-length | u32 crc32(payload) | payload bytes ]

   A crash can leave a torn final frame (a partial append); the
   pre-recovery scan reads frames until the bytes run out or a checksum
   fails, and everything from the first bad frame on is discarded —
   exactly the "log scan prior to recovery" the paper's abstract model
   glosses over.

   The medium is a growable byte array with an explicit length, so an
   append writes its frame straight into the slack and checksums the
   payload there, and tearing/truncation just move the length — no
   wholesale copies of the log on the hot path. The scan likewise
   checksums and decodes each payload in place, bounded by its frame
   end, without copying it out. *)

module Metrics = Redo_obs.Metrics
module Trace = Redo_obs.Trace

let c_frames = Metrics.counter "stable_log.frames_encoded"
let c_scans = Metrics.counter "stable_log.scans"
let c_scan_records = Metrics.counter "stable_log.scan_records"
let c_torn_scans = Metrics.counter "stable_log.torn_scans"
let c_truncated_bytes = Metrics.counter "stable_log.truncated_bytes"
let h_scan_ns = Metrics.histogram "stable_log.scan_ns"

type t = {
  mutable data : Bytes.t;
  mutable len : int;  (* bytes 0..len-1 are the log; the rest is slack *)
  mutable frames : int;
}

let header_size = 8

let create ?(capacity = 1024) () =
  { data = Bytes.create (max 64 capacity); len = 0; frames = 0 }

let byte_size t = t.len
let frame_count t = t.frames

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.data then begin
    let cap = ref (max 1024 (Bytes.length t.data)) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let data = Bytes.create !cap in
    Bytes.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let append t payload =
  let payload_len = String.length payload in
  let n = header_size + payload_len in
  ensure t n;
  let data = t.data and pos = t.len in
  Bytes.set_int32_be data pos (Int32.of_int payload_len);
  Bytes.blit_string payload 0 data (pos + header_size) payload_len;
  let crc = Redo_obs.Checksum.update 0 data ~pos:(pos + header_size) ~len:payload_len in
  Bytes.set_int32_be data (pos + 4) (Int32.of_int crc);
  t.len <- pos + n;
  t.frames <- t.frames + 1;
  Metrics.incr c_frames;
  n

let append_record t record = append t (Codec.encode_record record)

(* Append pre-framed bytes verbatim (possibly ending mid-frame), e.g.
   frames written by an earlier build of this module. *)
let append_raw t bytes =
  let n = String.length bytes in
  ensure t n;
  Bytes.blit_string bytes 0 t.data t.len n;
  t.len <- t.len + n;
  n

(* Simulate a torn write: chop the final [drop] bytes (at most one
   frame's worth matters; chopping into a frame makes it unreadable). *)
let tear t ~drop =
  if drop > 0 then t.len <- max 0 (t.len - drop)
  (* frames is now an overestimate; scan is the source of truth. *)

type scan_result = {
  records : Record.t list;
  valid_bytes : int;
  torn : bool;  (* the tail was cut short or corrupt *)
}

let scan t =
  let t0 = Metrics.now_ns () in
  let data = t.data and len = t.len in
  let rec go pos acc =
    if pos = len then { records = List.rev acc; valid_bytes = pos; torn = false }
    else if pos + header_size > len then
      { records = List.rev acc; valid_bytes = pos; torn = true }
    else
      let payload_len = Int32.to_int (Bytes.get_int32_be data pos) in
      let crc = Int32.to_int (Bytes.get_int32_be data (pos + 4)) land 0xFFFFFFFF in
      if payload_len < 0 || pos + header_size + payload_len > len then
        { records = List.rev acc; valid_bytes = pos; torn = true }
      else
        let start = pos + header_size in
        if Redo_obs.Checksum.update 0 data ~pos:start ~len:payload_len <> crc then
          { records = List.rev acc; valid_bytes = pos; torn = true }
        else
          match Codec.decode_record_at data ~pos:start ~len:payload_len with
          | record -> go (pos + header_size + payload_len) (record :: acc)
          | exception Codec.Decode_error _ ->
            { records = List.rev acc; valid_bytes = pos; torn = true }
  in
  let result = go 0 [] in
  Metrics.incr c_scans;
  Metrics.add c_scan_records (List.length result.records);
  if result.torn then Metrics.incr c_torn_scans;
  Metrics.observe h_scan_ns (Metrics.now_ns () -. t0);
  result

let truncate_torn t =
  let result = scan t in
  if result.torn then begin
    Metrics.add c_truncated_bytes (t.len - result.valid_bytes);
    if Trace.enabled () then
      Trace.emit "stable_log.truncated"
        [
          "dropped_bytes", Trace.Int (t.len - result.valid_bytes);
          "surviving_records", Trace.Int (List.length result.records);
        ];
    t.len <- result.valid_bytes;
    t.frames <- List.length result.records
  end;
  result.records

let corrupt_byte t ~pos =
  if pos < 0 || pos >= t.len then invalid_arg "Stable_log.corrupt_byte";
  Bytes.set t.data pos (Char.chr (Char.code (Bytes.get t.data pos) lxor 0xff))
