(** The stable log medium: append-only CRC-framed bytes.

    Each {!append} writes one frame
    [[u32 length | u32 crc32 | payload]]. A crash can leave a torn
    final frame; {!scan} reads frames until the first short or
    corrupt one and reports how much of the log is trustworthy — the
    concrete form of the pre-recovery log scan. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (bytes, default 1024) preallocates the backing array;
    the log still grows past it by doubling. Sizing it to the expected
    volume keeps the append path free of growth copies. *)

val byte_size : t -> int
val frame_count : t -> int

val append : t -> string -> int
(** Append one [[u32 length | u32 crc32 | payload]] frame, written and
    checksummed directly in the medium — the one place that writes the
    frame layout; returns the bytes written (payload + 8). *)

val append_record : t -> Record.t -> int
(** [append] of {!Codec.encode_record}. *)

val append_raw : t -> string -> int
(** Append pre-framed bytes verbatim, possibly ending mid-frame — e.g.
    frames written by an earlier build of this module. *)

val tear : t -> drop:int -> unit
(** Crash-injection: chop the final [drop] bytes (a torn write). *)

type scan_result = {
  records : Record.t list;  (** Records recovered, in append order. *)
  valid_bytes : int;  (** Where the trustworthy prefix ends. *)
  torn : bool;  (** A short or corrupt tail was found (and ignored). *)
}

val scan : t -> scan_result
(** Read frames from the start until the first short, bad-CRC or
    undecodable one. Each payload is checksummed and decoded where it
    sits in the medium ({!Codec.decode_record_at}), never copied out. *)

val truncate_torn : t -> Record.t list
(** Scan, discard any torn tail from the medium, return the surviving
    records. *)

val corrupt_byte : t -> pos:int -> unit
(** Fault injection: flip one byte in place.
    @raise Invalid_argument out of range. *)
