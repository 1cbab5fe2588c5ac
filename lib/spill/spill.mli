(** Crash-safe spill files with checksummed frames, and the k-way
    loser-tree merge used to replay them.

    A spill file is a 5-byte header ([XQSP] + version) followed by
    frames of [payload length (u32 LE) | FNV-1a checksum (u32 LE) |
    payload]. Files are created in the spill directory and immediately
    unlinked while the descriptor stays open, so the kernel reclaims
    them on any kind of process death; where unlink-while-open is not
    possible the path is registered and removed at exit and on
    SIGINT/SIGTERM.

    Every failure — real I/O errors, torn or truncated frames, checksum
    mismatches, and injected faults from the [XQ_FAULTS] I/O stream —
    raises a structured [XQENG0006] (via [Governor.spill_trip]) naming
    the file and operation. No call ever returns partial data. *)

(** {1 Availability} *)

(** Spill directory of the installed governor's query ([--spill-dir],
    else [XQ_SPILL_DIR], else the system temp directory — see
    [Config.spill_dir]); with no governor installed, of the
    environment. *)
val dir : unit -> string

(** [true] when spilling may be used: the query's spill switch is on
    ([--no-spill] / [XQ_NO_SPILL=1] turn it off) and a probe file can be
    created in {!dir}. *)
val available : unit -> bool

(** Once-per-process stderr warning that a watermark is armed but
    spilling is unavailable, so hard memory trips stay in force —
    mirrors [Par]'s spawn-fallback warning. *)
val warn_unavailable : unit -> unit

(** FNV-1a/32 of a payload, as stored in frame headers. Exposed so
    corruption tests can fabricate valid and invalid frames. *)
val checksum : string -> int

module File : sig
  type t

  (** Create a spill file (counted in governor stats). May raise
      [XQENG0006] — including an injected open fault. *)
  val create : unit -> t

  (** Append one frame. May raise [XQENG0006]; an injected fault
      commits a torn prefix of the frame first, so the on-disk state is
      a genuinely short write. A payload too large for the u32 length
      field trips explicitly instead of truncating; frame writers
      split oversized records beforehand (see [Group]). *)
  val write_frame : t -> string -> unit

  (** Payload + framing bytes written so far (excludes the header). *)
  val bytes : t -> int

  val frames : t -> int

  (** Current write offset — record it before and after writing a
      sorted run to get the run's [(off, len)] span. *)
  val pos : t -> int

  (** Close (and for registered-path files, remove). Idempotent. *)
  val close : t -> unit

  (** Test hook: append raw bytes with no framing, to fabricate torn
      frames and corrupt checksums against the real reader. *)
  val write_raw : t -> string -> unit

  type cursor

  (** [cursor ?off ?len file] reads frames from [off] (default: just
      after the header, validating it) for [len] bytes (default: to the
      end of data). Several cursors may read one file. *)
  val cursor : ?off:int -> ?len:int -> t -> cursor

  (** Next frame payload, or [None] at the end of the span. Raises
      [XQENG0006] on torn frames, overruns or checksum mismatches. *)
  val next_frame : cursor -> string option
end

(** {1 Merging} *)

(** [merge_runs ~cmp pulls emit] merges [k] sorted pull streams with a
    loser tree (log k comparisons per record). Ties break toward the
    lower stream index, keeping equal keys in run order. *)
val merge_runs :
  cmp:('r -> 'r -> int) -> (unit -> 'r option) array -> ('r -> unit) -> unit
