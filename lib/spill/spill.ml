(* Crash-safe spill files with checksummed frames, and the k-way merge
   used to replay them.

   A spill file is a header ("XQSP" + version byte) followed by frames:

     [payload length : u32 LE] [FNV-1a checksum : u32 LE] [payload]

   Files are created with O_EXCL in the spill directory and immediately
   unlinked while the descriptor stays open — the kernel reclaims the
   bytes the instant the process dies, however it dies, so a crash can
   never leak spill space. On the rare filesystem where unlink-while-
   open fails, the path is instead registered for cleanup at exit and
   on SIGINT/SIGTERM. All reads go back through the same descriptor.

   Every failure mode — a real [Unix_error], a torn or truncated frame,
   a checksum mismatch, or an injected fault from the [XQ_FAULTS] I/O
   stream — funnels through [Governor.spill_trip], raising a structured
   [XQENG0006] that names the file and the failing operation. Nothing
   in this module ever returns partial data. *)

module Governor = Xq_governor.Governor

let magic = "XQSP\001"

(* --- availability -------------------------------------------------------- *)

(* The query's spill settings ride its governor; with none installed
   (no query is spilling) they resolve from the environment. *)
let config () =
  match Governor.current () with
  | Some g -> Governor.config g
  | None -> Xq_governor.Config.resolve ()

let dir () = (config ()).spill_dir

let probe_counter = Atomic.make 0

(* Can we actually create a file in the spill directory? Probed with
   raw Unix calls (never the fault-injected path: an injected fault
   must surface as XQENG0006 at spill time, not silently disable
   spilling). Re-evaluated per call — it is only consulted once per
   grouping operator, and each query may name its own directory. *)
let available () =
  let c = config () in
  c.spill
  &&
  let path =
    Filename.concat c.spill_dir
      (Printf.sprintf "xq-spill-probe-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add probe_counter 1))
  in
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600 with
  | fd ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    true
  | exception Unix.Unix_error _ -> false

let warned = Atomic.make false

(* Mirrors [Par]'s spawn-fallback warning: once per process, on stderr,
   when a watermark is armed but no spill directory is usable — the
   query continues on the in-memory path with pure hard-trip
   behaviour. *)
let warn_unavailable () =
  if not (Atomic.exchange warned true) then
    prerr_endline
      "xq: warning: spill directory unavailable (XQ_NO_SPILL set or not \
       writable); continuing in memory with hard memory trips"

(* --- registered-path cleanup (fallback when unlink-while-open fails) ----- *)

let registered : (string, unit) Hashtbl.t = Hashtbl.create 8
let registered_mutex = Mutex.create ()

(* Best-effort: runs from [at_exit] and from the SIGINT/SIGTERM
   handlers. A signal lands at a safe point on a thread that may be
   inside [register_path]/[unregister_path] already holding the mutex,
   and OCaml mutexes are not reentrant — so the cleanup must never
   block on it. When [try_lock] loses, cleanup is skipped: the paths
   leak only on that unlucky race, which beats deadlocking the exit. *)
let cleanup_registered () =
  if Mutex.try_lock registered_mutex then begin
    let paths = Hashtbl.fold (fun p () acc -> p :: acc) registered [] in
    Hashtbl.reset registered;
    Mutex.unlock registered_mutex;
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths
  end

let cleanup_installed = Atomic.make false

let install_cleanup () =
  if not (Atomic.exchange cleanup_installed true) then begin
    at_exit cleanup_registered;
    List.iter
      (fun s ->
        try
          ignore
            (Sys.signal s
               (Sys.Signal_handle
                  (fun _ ->
                    cleanup_registered ();
                    exit 130)))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]
  end

let register_path p =
  install_cleanup ();
  Mutex.lock registered_mutex;
  Hashtbl.replace registered p ();
  Mutex.unlock registered_mutex

let unregister_path p =
  Mutex.lock registered_mutex;
  Hashtbl.remove registered p;
  Mutex.unlock registered_mutex

(* --- checksums ----------------------------------------------------------- *)

(* FNV-1a, 32-bit. *)
let checksum s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

(* --- files ---------------------------------------------------------------- *)

module File = struct
  type t = {
    fd : Unix.file_descr;
    path : string;  (* for error messages; may already be unlinked *)
    linked : bool;  (* true = registered-path fallback, remove on close *)
    mutable wpos : int;  (* write offset = logical end of data *)
    mutable frames : int;
    mutable closed : bool;
  }

  let trip file op fmt =
    Format.kasprintf
      (fun detail ->
        Governor.spill_trip
          (Printf.sprintf "spill %s failed on %s: %s" op file detail))
      fmt

  let file_counter = Atomic.make 0

  let write_all fd bytes off len path =
    let written = ref 0 in
    (try
       while !written < len do
         written := !written + Unix.write fd bytes (off + !written) (len - !written)
       done
     with Unix.Unix_error (e, _, _) ->
       trip path "write" "%s after %d of %d bytes" (Unix.error_message e)
         !written len)

  let create () =
    let path =
      Filename.concat (dir ())
        (Printf.sprintf "xq-spill-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add file_counter 1))
    in
    (match Governor.io_fault () with
     | Some seed ->
       Governor.spill_trip
         (Printf.sprintf
            "spill open failed on %s: injected open fault (XQ_FAULTS seed %d)"
            path seed)
     | None -> ());
    let fd =
      try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600
      with Unix.Unix_error (e, _, _) ->
        Governor.spill_trip
          (Printf.sprintf "spill open failed on %s: %s" path
             (Unix.error_message e))
    in
    let linked =
      match Unix.unlink path with
      | () -> false
      | exception Unix.Unix_error _ ->
        register_path path;
        true
    in
    let file = { fd; path; linked; wpos = 0; frames = 0; closed = false } in
    write_all fd (Bytes.of_string magic) 0 (String.length magic) path;
    file.wpos <- String.length magic;
    Governor.note_spill ~bytes:0 ~files:1 ~repartitions:0;
    file

  let header_len = 8

  (* The frame length field is a u32: [Int32.of_int] would silently
     truncate anything larger, to be caught only later as a checksum or
     overrun error. Writers are expected to split oversized cells (see
     [Group]); this trip is the backstop. *)
  let max_frame = Int32.to_int Int32.max_int

  let frame_bytes payload =
    let n = String.length payload in
    let b = Bytes.create (header_len + n) in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.set_int32_le b 4 (Int32.of_int (checksum payload));
    Bytes.blit_string payload 0 b header_len n;
    b

  let write_frame file payload =
    if String.length payload > max_frame then
      trip file.path "write" "frame payload of %d bytes exceeds the %d-byte \
                              frame limit" (String.length payload) max_frame;
    let b = frame_bytes payload in
    let len = Bytes.length b in
    (match Governor.io_fault () with
     | Some seed ->
       (* A short write: commit a prefix so the file genuinely ends in a
          torn frame, then fail closed. *)
       let torn = len / 2 in
       write_all file.fd b 0 torn file.path;
       file.wpos <- file.wpos + torn;
       trip file.path "write" "injected short write after %d of %d bytes \
                               (XQ_FAULTS seed %d)" torn len seed
     | None -> ());
    write_all file.fd b 0 len file.path;
    file.wpos <- file.wpos + len;
    file.frames <- file.frames + 1;
    Governor.note_spill ~bytes:len ~files:0 ~repartitions:0

  (* Test hook: append raw bytes, bypassing framing — used to fabricate
     torn frames and checksum corruption against the real reader. *)
  let write_raw file s =
    write_all file.fd (Bytes.of_string s) 0 (String.length s) file.path;
    file.wpos <- file.wpos + String.length s

  let pos file = file.wpos
  let data_start = String.length magic
  let bytes file = file.wpos - data_start
  let frames file = file.frames

  let close file =
    if not file.closed then begin
      file.closed <- true;
      (try Unix.close file.fd with Unix.Unix_error _ -> ());
      if file.linked then begin
        (try Sys.remove file.path with Sys_error _ -> ());
        unregister_path file.path
      end
    end

  (* --- reading ----------------------------------------------------------- *)

  type cursor = { cfile : t; mutable off : int; limit : int }

  let read_exact file off len what =
    let b = Bytes.create len in
    (try
       ignore (Unix.lseek file.fd off Unix.SEEK_SET);
       let got = ref 0 in
       while !got < len do
         let n = Unix.read file.fd b !got (len - !got) in
         if n = 0 then
           trip file.path "read" "unexpected end of file reading %s at \
                                  offset %d" what off;
         got := !got + n
       done
     with Unix.Unix_error (e, _, _) ->
       trip file.path "read" "%s reading %s at offset %d"
         (Unix.error_message e) what off);
    Bytes.unsafe_to_string b

  let cursor ?off ?len file =
    let off = match off with Some o -> o | None -> data_start in
    let limit =
      match len with Some l -> off + l | None -> file.wpos
    in
    if off = data_start && off <= file.wpos then begin
      (* validate the header once per whole-file cursor *)
      let h = read_exact file 0 data_start "header" in
      if h <> magic then
        trip file.path "read" "bad magic or version in header"
    end;
    { cfile = file; off; limit }

  let next_frame cur =
    let file = cur.cfile in
    if cur.off >= cur.limit then None
    else begin
      if cur.limit - cur.off < header_len then
        trip file.path "read" "torn frame header at offset %d (%d trailing \
                               bytes)" cur.off (cur.limit - cur.off);
      let h = read_exact file cur.off header_len "frame header" in
      let len = Int32.to_int (String.get_int32_le h 0) in
      let crc = Int32.to_int (String.get_int32_le h 4) land 0xffffffff in
      if len < 0 || cur.off + header_len + len > cur.limit then
        trip file.path "read" "frame of %d bytes at offset %d overruns the \
                               file (torn final frame?)" len cur.off;
      let payload = read_exact file (cur.off + header_len) len "frame payload" in
      if checksum payload <> crc then
        trip file.path "read" "checksum mismatch in frame at offset %d"
          cur.off;
      cur.off <- cur.off + header_len + len;
      Some payload
    end
end

(* --- k-way merge (loser tree) -------------------------------------------- *)

(* Tournament tree of losers over [k] pull streams. Internal nodes
   1..k-1 hold the losers of their subtree's final, [tree.(0)] the
   overall winner; leaf [j] sits at position [k + j]. After the winner
   is consumed only its leaf-to-root path replays: log k comparisons
   per emitted record. Ties break toward the lower stream index, which
   is what keeps equal keys in run (= input) order. *)
let merge_runs ~cmp (pulls : (unit -> 'r option) array) emit =
  let k = Array.length pulls in
  if k = 0 then ()
  else if k = 1 then begin
    let rec drain () =
      match pulls.(0) () with
      | Some r ->
        emit r;
        drain ()
      | None -> ()
    in
    drain ()
  end
  else begin
    let heads = Array.map (fun p -> p ()) pulls in
    let beats a b =
      match heads.(a), heads.(b) with
      | None, _ -> false
      | Some _, None -> true
      | Some x, Some y ->
        let c = cmp x y in
        c < 0 || (c = 0 && a < b)
    in
    let tree = Array.make k (-1) in
    let winner = Array.make (2 * k) (-1) in
    for j = 0 to k - 1 do
      winner.(k + j) <- j
    done;
    for p = k - 1 downto 1 do
      let a = winner.(2 * p) and b = winner.((2 * p) + 1) in
      if beats a b then begin
        winner.(p) <- a;
        tree.(p) <- b
      end
      else begin
        winner.(p) <- b;
        tree.(p) <- a
      end
    done;
    tree.(0) <- winner.(1);
    let replay j =
      let w = ref j and pos = ref ((k + j) / 2) in
      while !pos >= 1 do
        if beats tree.(!pos) !w then begin
          let t = tree.(!pos) in
          tree.(!pos) <- !w;
          w := t
        end;
        pos := !pos / 2
      done;
      tree.(0) <- !w
    in
    let rec drain () =
      let j = tree.(0) in
      match heads.(j) with
      | None -> ()
      | Some r ->
        emit r;
        heads.(j) <- pulls.(j) ();
        replay j;
        drain ()
    in
    drain ()
  end
