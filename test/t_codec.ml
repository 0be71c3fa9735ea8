open Redo_storage
open Redo_wal

let test_crc_known_value () =
  Alcotest.(check bool) "CRC32(123456789) = 0xCBF43926" true (Redo_obs.Checksum.self_test ());
  Alcotest.(check int) "empty" 0 (Redo_obs.Checksum.string "")

let test_crc_incremental () =
  let whole = Redo_obs.Checksum.string "hello world" in
  let b = Bytes.of_string "hello world" in
  Alcotest.(check int) "bytes = string" whole (Redo_obs.Checksum.bytes b)

(* Bit-at-a-time CRC-32 straight from the definition (reflected
   polynomial 0xEDB88320, pre- and post-inverted): the reference the
   sliced table implementation must match bit for bit. *)
let reference_crc b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let rand_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

let test_crc_matches_reference () =
  let rng = Random.State.make [| 0xc3c |] in
  for len = 0 to 80 do
    for _ = 1 to 4 do
      (* Random slack on both sides puts [pos] on every alignment. *)
      let pos = Random.State.int rng 16 in
      let b = rand_bytes rng (pos + len + Random.State.int rng 16) in
      let expected = reference_crc b ~pos ~len in
      Alcotest.(check int) (Printf.sprintf "len %d at pos %d" len pos) expected
        (Redo_obs.Checksum.update 0 b ~pos ~len);
      Alcotest.(check int) "bytes ~pos ~len" expected (Redo_obs.Checksum.bytes ~pos ~len b)
    done
  done

let prop_crc_chained seed =
  (* Feeding a buffer in chunks, each call continuing from the last
     result, equals one pass over the whole buffer. *)
  let rng = Random.State.make [| seed; 0xc4a1 |] in
  let len = Random.State.int rng 200 in
  let b = rand_bytes rng len in
  let rec chain crc pos =
    if pos = len then crc
    else
      let n = 1 + Random.State.int rng (len - pos) in
      chain (Redo_obs.Checksum.update crc b ~pos ~len:n) (pos + n)
  in
  let whole = Redo_obs.Checksum.bytes b in
  chain 0 0 = whole && whole = reference_crc b ~pos:0 ~len

let test_crc_bounds () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: out-of-range read accepted" name
  in
  let b = Bytes.create 8 in
  rejects "len past end" (fun () -> Redo_obs.Checksum.bytes ~pos:0 ~len:4096 b);
  rejects "pos past end" (fun () -> Redo_obs.Checksum.bytes ~pos:9 b);
  rejects "negative pos" (fun () -> Redo_obs.Checksum.update 0 b ~pos:(-1) ~len:2);
  rejects "negative len" (fun () -> Redo_obs.Checksum.update 0 b ~pos:2 ~len:(-1));
  rejects "range one past end" (fun () -> Redo_obs.Checksum.update 0 b ~pos:1 ~len:8);
  Alcotest.(check int) "empty range at end" 0 (Redo_obs.Checksum.update 0 b ~pos:8 ~len:0)

(* --- random record generation for fuzzing --- *)

let rand_string rng =
  String.init (Random.State.int rng 12) (fun _ ->
      Char.chr (32 + Random.State.int rng 95))

let rand_entries rng =
  List.init (Random.State.int rng 5) (fun i ->
      Printf.sprintf "k%d%s" i (rand_string rng), rand_string rng)

let rand_data rng : Page.data =
  match Random.State.int rng 5 with
  | 0 -> Page.Empty
  | 1 -> Page.Bytes (rand_string rng)
  | 2 -> Page.Kv (rand_entries rng)
  | 3 -> Page.Node (Page.Leaf (rand_entries rng))
  | _ ->
    let n = Random.State.int rng 4 in
    Page.Node
      (Page.Internal
         {
           seps = List.init n (fun i -> Printf.sprintf "s%02d" i);
           children = List.init (n + 1) (fun i -> i + 1);
         })

let rand_page_op rng : Page_op.t =
  match Random.State.int rng 9 with
  | 0 -> Page_op.Put (rand_string rng, rand_string rng)
  | 1 -> Page_op.Del (rand_string rng)
  | 2 -> Page_op.Set_bytes (rand_string rng)
  | 3 -> Page_op.Leaf_put (rand_string rng, rand_string rng)
  | 4 -> Page_op.Leaf_del (rand_string rng)
  | 5 -> Page_op.Init_leaf (rand_entries rng)
  | 6 ->
    let n = Random.State.int rng 3 in
    Page_op.Init_internal
      {
        seps = List.init n (fun i -> Printf.sprintf "s%d" i);
        children = List.init (n + 1) (fun i -> i);
      }
  | 7 -> Page_op.Internal_add { sep = rand_string rng; right = Random.State.int rng 100 }
  | _ -> Page_op.Drop_from { key = rand_string rng }

(* One generator per payload kind; [rand_payload] draws the kind first. *)
let payload_kinds = 7

let rand_payload_of_kind rng kind : Record.payload =
  match kind with
  | 0 -> Record.Physical { pid = Random.State.int rng 64; image = rand_data rng }
  | 1 -> Record.Physiological { pid = Random.State.int rng 64; op = rand_page_op rng }
  | 2 ->
    Record.Multi
      (if Random.State.bool rng then
         Multi_op.Split_to
           { src = Random.State.int rng 64; dst = Random.State.int rng 64; at = rand_string rng }
       else Multi_op.Copy { src = Random.State.int rng 64; dst = Random.State.int rng 64 })
  | 3 ->
    Record.Logical
      (if Random.State.bool rng then Record.Db_put (rand_string rng, rand_string rng)
       else Record.Db_del (rand_string rng))
  | 4 -> Record.App_op { tag = rand_string rng; body = rand_string rng }
  | 5 ->
    Record.Checkpoint
      {
        dirty_pages =
          List.init (Random.State.int rng 4) (fun i -> i, Lsn.of_int (1 + Random.State.int rng 50));
        note = rand_string rng;
      }
  | _ ->
    Record.Shard_checkpoint
      {
        shard_pages = List.init (Random.State.int rng 6) (fun _ -> Random.State.int rng 64);
        horizon = Lsn.of_int (Random.State.int rng 10_000);
        shard_index = Random.State.int rng 8;
        shard_total = 1 + Random.State.int rng 8;
        shard_note = rand_string rng;
      }

let rand_payload rng = rand_payload_of_kind rng (Random.State.int rng payload_kinds)

let rand_record rng = Record.make ~lsn:(Lsn.of_int (1 + Random.State.int rng 10_000)) (rand_payload rng)

let prop_roundtrip seed =
  let rng = Random.State.make [| seed; 0xc0dec |] in
  let r = rand_record rng in
  let r' = Codec.decode_record (Codec.encode_record r) in
  r = r'

(* [encoded_size] mirrors the encoder arithmetically instead of
   encoding; this pins the mirror to the real wire format so a codec
   change that forgets the size side cannot land. *)
let prop_encoded_size seed =
  let rng = Random.State.make [| seed; 0x512e |] in
  let r = rand_record rng in
  Codec.encoded_size r = String.length (Codec.encode_record r)

let test_decode_rejects_garbage () =
  (match Codec.decode_record "" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty should fail");
  (match Codec.decode_record (String.make 9 '\xff') with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage should fail");
  (* Trailing bytes are rejected too. *)
  let r = Record.make ~lsn:(Lsn.of_int 1) (Record.Logical (Record.Db_del "k")) in
  match Codec.decode_record (Codec.encode_record r ^ "x") with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes should fail"

(* Bytes of a payload built by hand, so a field the encoder never emits
   (a negative LSN) reaches the decoder. *)
let checkpoint_payload_with_dirty_lsn dirty_lsn =
  let b = Buffer.create 64 in
  Buffer.add_int64_be b 9L (* record lsn *);
  Buffer.add_uint8 b 5 (* Checkpoint *);
  Buffer.add_int32_be b 1l (* one dirty page *);
  Buffer.add_int64_be b 3L (* pid *);
  Buffer.add_int64_be b (Int64.of_int dirty_lsn);
  Buffer.add_int32_be b 0l (* empty note *);
  Buffer.contents b

let shard_payload_with_horizon horizon =
  let b = Buffer.create 64 in
  Buffer.add_int64_be b 9L (* record lsn *);
  Buffer.add_uint8 b 7 (* Shard_checkpoint *);
  Buffer.add_int32_be b 0l (* no pages *);
  Buffer.add_int64_be b (Int64.of_int horizon);
  Buffer.add_int32_be b 0l (* shard_index *);
  Buffer.add_int32_be b 1l (* shard_total *);
  Buffer.add_int32_be b 0l (* empty note *);
  Buffer.contents b

let test_negative_lsn_ends_log () =
  List.iter
    (fun (name, payload) ->
      (* The hand-built layout is right: a non-negative LSN decodes. *)
      ignore (Codec.decode_record (payload 2));
      (match Codec.decode_record (payload (-1)) with
      | exception Codec.Decode_error _ -> ()
      | _ -> Alcotest.failf "%s: negative lsn decoded" name);
      (* Framed with a valid CRC, the frame passes the checksum and must
         end the log at the decoder, not raise out of the scan. *)
      let rng = Random.State.make [| 11 |] in
      let before = List.init 3 (fun _ -> rand_record rng) in
      let log = Stable_log.create () in
      List.iter (fun r -> ignore (Stable_log.append_record log r)) before;
      ignore (Stable_log.append log (payload (-5)));
      ignore (Stable_log.append_record log (rand_record rng));
      let result = Stable_log.scan log in
      Alcotest.(check bool) (name ^ ": torn") true result.Stable_log.torn;
      Alcotest.(check bool) (name ^ ": records before it kept") true
        (result.Stable_log.records = before))
    [
      "checkpoint dirty-page lsn", checkpoint_payload_with_dirty_lsn;
      "shard checkpoint horizon", shard_payload_with_horizon;
    ]

(* A payload embedded between random bytes decodes in place to the same
   record, and a frame end one byte short raises instead of reading the
   neighbouring byte (which here holds the payload's real last byte, so
   a decoder ignoring the bound would succeed or fail later). *)
let test_decode_in_place () =
  let rng = Random.State.make [| 0x1e1a |] in
  for kind = 0 to payload_kinds - 1 do
    for _ = 1 to 50 do
      let r =
        Record.make ~lsn:(Lsn.of_int (1 + Random.State.int rng 10_000)) (rand_payload_of_kind rng kind)
      in
      let payload = Codec.encode_record r in
      let len = String.length payload in
      let pos = Random.State.int rng 24 in
      let b = rand_bytes rng (pos + len + Random.State.int rng 24) in
      Bytes.blit_string payload 0 b pos len;
      Alcotest.(check bool) "in place = bare" true
        (Codec.decode_record_at b ~pos ~len = Codec.decode_record payload);
      match Codec.decode_record_at b ~pos ~len:(len - 1) with
      | exception Codec.Decode_error msg ->
        Alcotest.(check bool) ("stopped at the frame end: " ^ msg) true
          (String.starts_with ~prefix:"truncated" msg)
      | _ -> Alcotest.fail "a frame one byte short decoded"
    done
  done;
  match Codec.decode_record_at (Bytes.create 8) ~pos:4 ~len:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a range past the buffer was accepted"

(* Frames written by the byte-at-a-time CRC this codec used before it
   was sliced: four records covering short and multi-word payloads. *)
let golden_frames =
  "00000014b57c681200000000000000010400000000016b0000000176000000333e944c58000000000000000202000000000000000300000000036b657900000016612076616c7565206f6620736f6d65206c656e6774680000002708ce819d000000000000000305000000010000000000000003000000000000000200000006676f6c64656e0000003b2254b061000000000000000406000000017400000029303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758"

let golden_records =
  [
    Record.make ~lsn:(Lsn.of_int 1) (Record.Logical (Record.Db_put ("k", "v")));
    Record.make ~lsn:(Lsn.of_int 2)
      (Record.Physiological { pid = 3; op = Page_op.Put ("key", "a value of some length") });
    Record.make ~lsn:(Lsn.of_int 3)
      (Record.Checkpoint { dirty_pages = [ 3, Lsn.of_int 2 ]; note = "golden" });
    Record.make ~lsn:(Lsn.of_int 4)
      (Record.App_op { tag = "t"; body = String.init 41 (fun i -> Char.chr (48 + i)) });
  ]

let test_golden_frames () =
  let frames = Util.of_hex golden_frames in
  let log = Stable_log.create () in
  ignore (Stable_log.append_raw log frames);
  let result = Stable_log.scan log in
  Alcotest.(check bool) "old frames verify" false result.Stable_log.torn;
  Alcotest.(check bool) "old frames decode" true (result.Stable_log.records = golden_records);
  let appended = Stable_log.create () in
  List.iter (fun r -> ignore (Stable_log.append_record appended r)) golden_records;
  Alcotest.(check int) "append size" (String.length frames) (Stable_log.byte_size appended);
  Alcotest.(check bool) "append scans back" true
    ((Stable_log.scan appended).Stable_log.records = golden_records)

let test_stable_log_roundtrip () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 5 |] in
  let records = List.init 20 (fun _ -> rand_record rng) in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  let result = Stable_log.scan log in
  Alcotest.(check bool) "not torn" false result.Stable_log.torn;
  Alcotest.(check int) "all back" 20 (List.length result.Stable_log.records);
  Alcotest.(check bool) "identical" true (result.Stable_log.records = records)

let test_stable_log_torn_tail () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 6 |] in
  let records = List.init 10 (fun _ -> rand_record rng) in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  Stable_log.tear log ~drop:3;
  let result = Stable_log.scan log in
  Alcotest.(check bool) "torn detected" true result.Stable_log.torn;
  Alcotest.(check int) "one record lost" 9 (List.length result.Stable_log.records);
  let survivors = Stable_log.truncate_torn log in
  Alcotest.(check int) "medium truncated" 9 (List.length survivors);
  Alcotest.(check bool) "clean after truncation" false (Stable_log.scan log).Stable_log.torn

let test_stable_log_corruption () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 7 |] in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) (List.init 5 (fun _ -> rand_record rng));
  (* Flip a byte inside the middle of the log: everything from that
     frame on is discarded. *)
  Stable_log.corrupt_byte log ~pos:(Stable_log.byte_size log / 2);
  let result = Stable_log.scan log in
  Alcotest.(check bool) "corruption detected" true result.Stable_log.torn;
  Alcotest.(check bool) "prefix survives" true (List.length result.Stable_log.records < 5)

let prop_torn_tail_always_clean seed =
  (* Whatever we chop, the scan never returns a record that was not
     appended, and always returns a prefix. *)
  let rng = Random.State.make [| seed; 0x7ea4 |] in
  let log = Stable_log.create () in
  let records = List.init (1 + Random.State.int rng 10) (fun _ -> rand_record rng) in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  Stable_log.tear log ~drop:(Random.State.int rng (Stable_log.byte_size log + 1));
  let result = Stable_log.scan log in
  let rec is_prefix xs ys =
    match xs, ys with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false
  in
  is_prefix result.Stable_log.records records

(* Shard-checkpoint records hit the same wire format as everything else,
   including the empty edge cases the fuzz generator rarely produces. *)
let test_shard_ckpt_roundtrip () =
  let roundtrips sc =
    let r = Record.make ~lsn:(Lsn.of_int 7) (Record.Shard_checkpoint sc) in
    let encoded = Codec.encode_record r in
    Alcotest.(check bool) "roundtrip" true (Codec.decode_record encoded = r);
    Alcotest.(check int) "size mirror" (String.length encoded) (Codec.encoded_size r)
  in
  roundtrips
    {
      Record.shard_pages = [ 3; 1; 4; 1; 5 ];
      horizon = Lsn.of_int 92;
      shard_index = 2;
      shard_total = 5;
      shard_note = "shard-ckpt";
    };
  roundtrips
    {
      Record.shard_pages = [];
      horizon = Lsn.zero;
      shard_index = 0;
      shard_total = 1;
      shard_note = "";
    }

(* Graded durability of staggered shard records: tearing the last frame
   loses only the newest shard's horizon; the earlier ones still scan
   clean and keep their claims. *)
let test_shard_ckpt_torn_tail () =
  let log = Log_manager.create () in
  let shard i pages horizon =
    Log_manager.append log
      (Record.Shard_checkpoint
         {
           Record.shard_pages = pages;
           horizon = Lsn.of_int horizon;
           shard_index = i;
           shard_total = 3;
           shard_note = "t";
         })
  in
  let _ = shard 0 [ 1; 2 ] 10 in
  let l1 = shard 1 [ 3 ] 11 in
  let _ = shard 2 [ 4; 5 ] 12 in
  Log_manager.force log ~upto:l1;
  (* The force of shard 2's frame is interrupted mid-write. *)
  Log_manager.crash_torn log ~drop:2;
  let survivors = Log_manager.stable_shard_checkpoints log in
  Alcotest.(check int) "two shard records survive" 2 (List.length survivors);
  let horizons = Log_manager.stable_shard_horizons log in
  Alcotest.(check (list (pair int int)))
    "per-page horizons from the surviving shards"
    [ 1, 10; 2, 10; 3, 11 ]
    (List.map (fun (p, h) -> p, Lsn.to_int h) horizons)

let test_log_manager_torn_crash () =
  let log = Log_manager.create () in
  let put k = Log_manager.append log (Record.Logical (Record.Db_put (k, "v"))) in
  let l1 = put "a" in
  let _ = put "b" in
  let _ = put "c" in
  Log_manager.force log ~upto:l1;
  (* A force of the remaining tail (records 2 and 3) is interrupted two
     bytes short: record 2's frame survives, record 3's is torn. *)
  Log_manager.crash_torn log ~drop:2;
  Alcotest.(check int) "flushed ends at 2" 2 (Lsn.to_int (Log_manager.flushed_lsn log));
  Alcotest.(check int) "two survivors" 2 (List.length (Log_manager.stable_records log));
  (* Forced bytes are never torn: with an empty tail, nothing changes. *)
  Log_manager.crash_torn log ~drop:50;
  Alcotest.(check int) "still two" 2 (List.length (Log_manager.stable_records log));
  (* New appends resume cleanly after the survivors. *)
  let l3 = put "d" in
  Alcotest.(check int) "lsn reuse" 3 (Lsn.to_int l3)

let suite =
  [
    Alcotest.test_case "crc known value" `Quick test_crc_known_value;
    Alcotest.test_case "crc bytes = string" `Quick test_crc_incremental;
    Alcotest.test_case "sliced crc = bitwise reference" `Quick test_crc_matches_reference;
    Alcotest.test_case "crc rejects out-of-range reads" `Quick test_crc_bounds;
    Alcotest.test_case "negative lsn ends the log" `Quick test_negative_lsn_ends_log;
    Alcotest.test_case "decode in place stays in its frame" `Quick test_decode_in_place;
    Alcotest.test_case "byte-loop crc frames still verify" `Quick test_golden_frames;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "stable log roundtrip" `Quick test_stable_log_roundtrip;
    Alcotest.test_case "stable log torn tail" `Quick test_stable_log_torn_tail;
    Alcotest.test_case "stable log corruption" `Quick test_stable_log_corruption;
    Alcotest.test_case "shard checkpoint roundtrip" `Quick test_shard_ckpt_roundtrip;
    Alcotest.test_case "shard checkpoint torn tail" `Quick test_shard_ckpt_torn_tail;
    Alcotest.test_case "log manager torn crash" `Quick test_log_manager_torn_crash;
    Util.qtest ~count:300 "crc chained over random splits = one pass" prop_crc_chained;
    Util.qtest ~count:300 "codec roundtrip (fuzz)" prop_roundtrip;
    Util.qtest ~count:300 "encoded_size matches encoder (fuzz)" prop_encoded_size;
    Util.qtest ~count:200 "torn logs always scan to a clean prefix" prop_torn_tail_always_clean;
  ]
