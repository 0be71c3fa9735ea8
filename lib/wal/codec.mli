(** Binary wire format for log records.

    Deterministic, self-delimiting, big-endian encoding used by the
    framed {!Stable_log}. Every constructor of every payload kind
    round-trips ([decode_record (encode_record r)] is structurally
    [r]); the property tests in [test/t_codec.ml] fuzz this. *)

exception Decode_error of string

val encode_record : Record.t -> string

val decode_record : string -> Record.t
(** @raise Decode_error on truncation, unknown tags, negative lengths or
    LSNs, or trailing bytes — and nothing else, whatever the bytes. *)

val decode_record_at : Bytes.t -> pos:int -> len:int -> Record.t
(** [decode_record_at b ~pos ~len] decodes the record in bytes
    [pos .. pos+len-1] of [b] in place, without copying them out, and
    never reads outside that range: the stable-log scan decodes each
    frame's payload where it sits in the medium. Equals [decode_record]
    of those bytes.
    @raise Decode_error as {!decode_record}.
    @raise Invalid_argument if [pos]/[len] do not name a range of [b]. *)

val encoded_size : Record.t -> int
(** Exact wire size of the record (excluding framing), computed
    arithmetically without encoding — allocation-free, safe on the
    append hot path. Pinned to [String.length (encode_record r)] by the
    codec tests. *)
