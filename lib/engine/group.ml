open Xq_xdm
module Par = Xq_par.Par
module Governor = Xq_governor.Governor

type 'a group = { keys : Xseq.t list; members : 'a list }

(* Parallelism thresholds: below these sizes a fork-join round costs more
   than it saves, so the sequential path runs even when a degree > 1 is
   requested. Deliberately low so small randomized test workloads still
   exercise the parallel code paths. *)
let par_keys_min_chunk = 16
let par_build_min = 32
let par_sort_min_chunk = 32

let hash_keys keys =
  List.fold_left
    (fun h k -> Key.mix h (Deep_equal.hash_sequence k))
    (Key.mix Key.hash_seed (List.length keys))
    keys

let tick = function Some r -> incr r | None -> ()

(* --- canonicalization --------------------------------------------------- *)

(* Inputs below this many tuples never intern keys in the dictionary —
   keeps the golden-explain corpus (and every other tiny query) free of
   dictionary state while large builds get int-code probes. *)
let dict_min_input = 256

(* Canonicalize one batch of tuples' key lists. Key evaluation runs on
   the pool only when the caller vouches it is thread-safe
   ([parallel_keys] — the evaluator checks the key expressions construct
   no nodes); canonicalization itself only reads the tree and always
   parallelizes. [fed] is how many tuples earlier batches contributed:
   once the input is provably ≥ [dict_min_input] and the build may
   intern ([dict] — its query is batched and allows the dictionary),
   node keys intern to dictionary codes (raw and interned canons agree
   on hash/equality, so the mid-stream switch is sound). *)
let canonicalize_slice ~parallel ~parallel_keys ~dict ~keys_of ~fed slice =
  let intern = dict && fed + Array.length slice >= dict_min_input in
  let canon keys = Key.canonicalize ~intern keys in
  if parallel > 1 && parallel_keys then
    Par.map ~degree:parallel ~min_chunk:par_keys_min_chunk
      (fun t -> canon (keys_of t))
      slice
  else if parallel > 1 then begin
    let keys = Array.map keys_of slice in
    Par.map ~degree:parallel ~min_chunk:par_keys_min_chunk canon keys
  end
  else Array.map (fun t -> canon (keys_of t)) slice

(* --- hash-based building ------------------------------------------------ *)

type 'a cell = {
  c_key : Key.t;
  c_first : int; (* input index of the first member — the group's rank *)
  mutable rev_members : 'a list;
}

let to_groups cells =
  List.map
    (fun c -> { keys = Key.originals c.c_key; members = List.rev c.rev_members })
    cells

(* --- reduce mode (eager aggregation) ------------------------------------ *)

(* With a [reduce] function every cell retains exactly one member — a
   running accumulator — and each insertion folds the new tuple into it
   ([f earlier later], earlier argument on the left, preserving input
   order). Spilled records then carry one encoded accumulator per
   group, so the external build's disk and live-heap footprint is
   O(groups) instead of O(members); the parallel partial merges move
   scalars, not member lists. *)

let add_member reduce cell tuple =
  match reduce, cell.rev_members with
  | Some f, acc :: _ -> cell.rev_members <- [ f acc tuple ]
  | _ -> cell.rev_members <- tuple :: cell.rev_members

(* Fold a replayed record's members (chronological order) into an
   existing cell — the spill-merge counterpart of [add_member]. *)
let merge_members reduce cell members =
  match reduce, cell.rev_members with
  | Some f, acc :: _ -> cell.rev_members <- [ List.fold_left f acc members ]
  | Some f, [] -> begin
    match members with
    | [] -> ()
    | m :: ms -> cell.rev_members <- [ List.fold_left f m ms ]
  end
  | None, _ -> cell.rev_members <- List.rev_append members cell.rev_members

(* First members of a fresh replayed cell (input: chronological order;
   stored: newest-first, or a single fold under reduce). *)
let initial_members reduce members =
  match reduce, members with
  | Some f, m :: ms -> [ List.fold_left f m ms ]
  | _ -> List.rev members

(* --- spill-to-disk external grouping ------------------------------------ *)

(* When the governor's soft watermark is armed and the caller supplies a
   tuple codec, hash and sort grouping run an external build instead of
   the in-memory one:

   - canonicalization is interleaved with insertion in batches, so the
     full array of canonical keys never has to exist at once;
   - each partition registers a pressure callback: when charged bytes
     cross the watermark, the triggering partition serializes its whole
     hash table to its spill file as framed cells (key + first-member
     index + members) and returns the bytes to the budget;
   - hash grouping replays spill files through a fresh table, first
     recursively repartitioning any file larger than its replay
     threshold (the watermark divided by the partition count) by a
     depth-salted hash (a bounded number of times — duplicate-heavy
     keys collide at every salt, so at the depth cap the file is
     finished with sorted runs instead);
   - sort grouping flushes sorted runs and merges them with a loser
     tree, combining [Key.equal] cells within compare-equal clusters.

   Output is byte-identical to the in-memory path at any watermark and
   parallel degree: a key flushed and re-encountered simply yields two
   cells that the merge recombines — members concatenate in flush
   (= input) order and the merged first-member index is the original
   first encounter — and the final cell order is recomputed from
   first-member indices exactly as the parallel in-memory merge does. *)

module Spill = Xq_spill.Spill

type 'a codec = {
  enc : Binio.node_registry -> Buffer.t -> 'a -> unit;
  dec : Binio.node_registry -> Binio.reader -> 'a;
}

(* Approximate live-heap bookkeeping costs, charged per insert and
   returned on flush; canonical-key bytes are already charged by
   [Key.canonicalize] and returned when the key is dropped. *)
let member_cost = 24
let cell_cost = 96

let ext_batch = 2048
let repartition_fanout = 4
let max_repartition_depth = 4

type 'a part = {
  ptable : (int, 'a cell list ref) Hashtbl.t;
  mutable live_charge : int;  (* bytes to return on flush *)
  mutable pfile : Spill.File.t option;
  mutable runs : (int * int) list;  (* sort mode: (off, len), newest first *)
  reg : Binio.node_registry;
  pcodec : 'a codec;
  preduce : ('a -> 'a -> 'a) option;
  sort_mode : bool;
  pthreshold : int;
      (* replay/repartition threshold: a file no larger than this
         replays straight into a table, bigger ones repartition (or
         batch into sorted runs of this size). Sized to
         watermark / #partitions so all partitions replaying at once
         stay within one watermark of serialized state. *)
}

let new_part ~detach ~codec ~reduce ~sort_mode ~threshold =
  {
    ptable = Hashtbl.create 64;
    live_charge = 0;
    pfile = None;
    runs = [];
    (* streamed queries spill detached subtrees by value so the flush
       actually releases their memory; see Binio *)
    reg = Binio.registry ~detach ();
    pcodec = codec;
    preduce = reduce;
    sort_mode;
    pthreshold = threshold;
  }

let corrupt_trip m = Governor.spill_trip ("spill decode failed: " ^ m)

(* Frame payload: bucket hash (the build's, override included), first
   index, canonical key, members in input order. A record whose member
   list would exceed [frame_cap] splits greedily across several frames
   repeating the same (hash, first, key) prefix: flush then allocates
   one bounded buffer instead of a hot key's full serialized size (and
   can never overflow the u32 frame length). Replay recombines
   [Key.equal] cells preserving member order, so the split is invisible
   in the output. *)
let frame_cap part = max 4096 (part.pthreshold / 4)

let write_rec part file buf (h, c_first, key, members) =
  let cap = frame_cap part in
  Buffer.clear buf;
  Binio.put_varint buf h;
  Binio.put_varint buf c_first;
  Key.encode part.reg buf key;
  let prefix = Buffer.contents buf in
  let scratch = Buffer.create 256 in
  let emit chunk_rev n =
    Buffer.clear buf;
    Buffer.add_string buf prefix;
    Binio.put_varint buf n;
    List.iter (Buffer.add_string buf) (List.rev chunk_rev);
    Spill.File.write_frame file (Buffer.contents buf)
  in
  let rec go chunk_rev n bytes = function
    | [] -> emit chunk_rev n
    | m :: ms ->
      Buffer.clear scratch;
      part.pcodec.enc part.reg scratch m;
      let s = Buffer.contents scratch in
      if n > 0 && bytes + String.length s > cap then begin
        emit chunk_rev n;
        go [ s ] 1 (String.length s) ms
      end
      else go (s :: chunk_rev) (n + 1) (bytes + String.length s) ms
  in
  go [] 0 0 members

let decode_rec part payload =
  let r =
    try
      let r = Binio.reader payload in
      let h = Binio.get_varint r in
      let c_first = Binio.get_varint r in
      let key = Key.decode part.reg r in
      let nm = Binio.get_varint r in
      if nm < 0 then raise (Binio.Corrupt "negative member count");
      let members = List.init nm (fun _ -> part.pcodec.dec part.reg r) in
      (h, c_first, key, members)
    with Binio.Corrupt m -> corrupt_trip m
  in
  (* Decoded bytes count against the budget like any other
     materialization: replayed cells are live output (the sorted
     fallback's transient batches are returned when each run is
     written back out), so the hard check sees merge-phase growth
     instead of waiting for a Gc-delta slow tick. *)
  Governor.charge_bytes (String.length payload);
  r

let cmp_rec (_, f1, k1, _) (_, f2, k2, _) =
  let c = Key.compare k1 k2 in
  if c <> 0 then c else Int.compare f1 f2

let ensure_file part =
  match part.pfile with
  | Some f -> f
  | None ->
    let f = Spill.File.create () in
    part.pfile <- Some f;
    f

(* Serialize the partition's whole table and reset it — the pressure
   callback. In sort mode the cells go out as one sorted run. *)
let flush_part part =
  if Hashtbl.length part.ptable > 0 then begin
    let file = ensure_file part in
    let recs =
      Hashtbl.fold
        (fun h b acc ->
          List.fold_left
            (fun acc c -> (h, c.c_first, c.c_key, List.rev c.rev_members) :: acc)
            acc !b)
        part.ptable []
    in
    let recs = if part.sort_mode then List.sort cmp_rec recs else recs in
    let start = Spill.File.pos file in
    let buf = Buffer.create 1024 in
    List.iter (write_rec part file buf) recs;
    if part.sort_mode then
      part.runs <- (start, Spill.File.pos file - start) :: part.runs;
    Hashtbl.reset part.ptable;
    Governor.uncharge_bytes part.live_charge;
    part.live_charge <- 0
  end

let ext_insert ?tally ~cost part h key tuple gi =
  Governor.tick ();
  let bucket =
    match Hashtbl.find_opt part.ptable h with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.add part.ptable h b;
      b
  in
  match
    List.find_opt
      (fun cell ->
        tick tally;
        Key.equal cell.c_key key)
      !bucket
  with
  | Some cell ->
    add_member part.preduce cell tuple;
    (* the probe key is garbage now; swap its bytes for one cons *)
    Governor.uncharge_bytes (Key.charged_bytes key);
    (* reduce mode: the fold replaces the retained member, so live
       charge stays O(groups) — nothing new is pinned *)
    if part.preduce = None then begin
      let mc = cost tuple in
      part.live_charge <- part.live_charge + mc;
      Governor.charge_bytes mc
    end
  | None ->
    let cell = { c_key = key; c_first = gi; rev_members = [ tuple ] } in
    bucket := cell :: !bucket;
    let add = cell_cost + cost tuple in
    part.live_charge <- part.live_charge + add + Key.charged_bytes key;
    Governor.charge_bytes add

(* k-way merge of sorted runs, recombining [Key.equal] cells inside
   each compare-equal cluster (the preorder conflates some distinct
   keys, so equality must be re-checked). Emits cells in (key, first)
   order; clusters flush their distinct keys in first-encounter
   order. *)
let merge_sorted_runs ?tally part file runs =
  match runs with
  | [] -> []
  | _ ->
    let pulls =
      Array.of_list
        (List.map
           (fun (off, len) ->
             let cur = Spill.File.cursor ~off ~len file in
             fun () ->
               Option.map (decode_rec part) (Spill.File.next_frame cur))
           runs)
    in
    let out = ref [] in
    let cluster = ref [] in
    let flush_cluster () =
      let cs =
        List.sort (fun a b -> Int.compare a.c_first b.c_first) !cluster
      in
      out := List.rev_append cs !out;
      cluster := []
    in
    Spill.merge_runs
      ~cmp:(fun a b ->
        tick tally;
        cmp_rec a b)
      pulls
      (fun (_, c_first, key, members) ->
        Governor.tick ();
        (match !cluster with
         | c :: _ when Key.compare c.c_key key <> 0 -> flush_cluster ()
         | _ -> ());
        match
          List.find_opt
            (fun c ->
              tick tally;
              Key.equal c.c_key key)
            !cluster
        with
        | Some c -> merge_members part.preduce c members
        | None ->
          cluster :=
            { c_key = key; c_first;
              rev_members = initial_members part.preduce members }
            :: !cluster);
    flush_cluster ();
    List.rev !out

(* Depth-cap fallback: batch the file into sorted runs and loser-tree
   merge them — insensitive to hash skew, so duplicate-heavy keys that
   defeat repartitioning still terminate. *)
let fallback_sorted ?tally part file =
  let runs_file = Spill.File.create () in
  Fun.protect
    ~finally:(fun () -> Spill.File.close runs_file)
    (fun () ->
      let threshold = part.pthreshold in
      let runs = ref [] in
      let batch = ref [] and batch_bytes = ref 0 in
      let buf = Buffer.create 1024 in
      let flush_run () =
        if !batch <> [] then begin
          (* [batch] is newest-first; restore decode order before the
             (stable) sort — chunks of one split cell compare equal and
             must stay in chunk order *)
          let recs = List.sort cmp_rec (List.rev !batch) in
          let start = Spill.File.pos runs_file in
          List.iter (write_rec part runs_file buf) recs;
          runs := (start, Spill.File.pos runs_file - start) :: !runs;
          (* the batch was transient: its decode charges go back now
             that the records are on disk again *)
          Governor.uncharge_bytes !batch_bytes;
          batch := [];
          batch_bytes := 0
        end
      in
      let cur = Spill.File.cursor file in
      let rec go () =
        match Spill.File.next_frame cur with
        | None -> ()
        | Some payload ->
          Governor.tick ();
          batch := decode_rec part payload :: !batch;
          batch_bytes := !batch_bytes + String.length payload;
          if !batch_bytes > threshold then flush_run ();
          go ()
      in
      go ();
      flush_run ();
      merge_sorted_runs ?tally part runs_file (List.rev !runs))

(* Replay a hash-mode spill file into cells: small files hash-merge in
   memory; large ones repartition by a depth-salted hash and recurse. *)
let rec replay_hash ?tally part file depth =
  let threshold = part.pthreshold in
  if Spill.File.bytes file > threshold && depth < max_repartition_depth then begin
    let subs = Array.init repartition_fanout (fun _ -> Spill.File.create ()) in
    Fun.protect
      ~finally:(fun () -> Array.iter Spill.File.close subs)
      (fun () ->
        let cur = Spill.File.cursor file in
        let rec go () =
          match Spill.File.next_frame cur with
          | None -> ()
          | Some payload ->
            Governor.tick ();
            let h =
              try Binio.get_varint (Binio.reader payload)
              with Binio.Corrupt m -> corrupt_trip m
            in
            let idx =
              Key.mix (Key.salt depth) h land max_int mod repartition_fanout
            in
            (* raw re-route: the frame bytes move unchanged *)
            Spill.File.write_frame subs.(idx) payload;
            go ()
        in
        go ();
        Governor.note_spill ~bytes:0 ~files:0 ~repartitions:1;
        Array.fold_left
          (fun acc sub -> List.rev_append (replay_hash ?tally part sub (depth + 1)) acc)
          [] subs)
  end
  else if Spill.File.bytes file > threshold then fallback_sorted ?tally part file
  else begin
    let table : (int, 'a cell list ref) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let cur = Spill.File.cursor file in
    let rec go () =
      match Spill.File.next_frame cur with
      | None -> ()
      | Some payload ->
        Governor.tick ();
        let h, c_first, key, members = decode_rec part payload in
        let bucket =
          match Hashtbl.find_opt table h with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.add table h b;
            b
        in
        (match
           List.find_opt
             (fun c ->
               tick tally;
               Key.equal c.c_key key)
             !bucket
         with
         | Some c -> merge_members part.preduce c members
         | None ->
           let cell =
             { c_key = key; c_first;
               rev_members = initial_members part.preduce members }
           in
           bucket := cell :: !bucket;
           order := cell :: !order);
        go ()
    in
    go ();
    !order
  end

(* Merge phase for one partition; closes its files. *)
let ext_part_cells ?tally part =
  match part.pfile with
  | None ->
    (* never spilled: everything is still in the table *)
    let cells = Hashtbl.fold (fun _ b acc -> !b @ acc) part.ptable [] in
    Hashtbl.reset part.ptable;
    cells
  | Some file ->
    Fun.protect
      ~finally:(fun () -> Spill.File.close file)
      (fun () ->
        flush_part part;
        if part.sort_mode then
          merge_sorted_runs ?tally part file (List.rev part.runs)
        else replay_hash ?tally part file 0)

(* Spill only when the caller supplied a codec, the governor arms a
   watermark, and a spill directory is usable — otherwise warn once and
   keep the in-memory path's hard-trip behaviour. *)
let spill_active = function
  | None -> false
  | Some _ ->
    Governor.spill_armed ()
    &&
    if Spill.available () then true
    else begin
      Spill.warn_unavailable ();
      false
    end

(* --- incremental builder ------------------------------------------------- *)

(* The batched executor feeds tuples a vector at a time; each strategy is
   an accumulator created once per group operator. The one-shot
   [group_hash]/[group_sort]/[group_scan] entry points below are thin
   wrappers that chunk a list through a builder at its batch size.

   The in-memory hash build is hash-partitioned at creation time: [p]
   tables, table [j] owning the keys whose hash is ≡ j (mod p). Equal
   keys always land in one partition, so each partition's table sees
   exactly the probes a sequential build would have made for those
   tuples — the summed tally is identical at any degree — and the merged
   group order (ascending first-member index) is the sequential
   first-encounter order. Below [par_build_min] tuples a feed runs the
   partition loops inline instead of forking tasks. *)

type 'a mem_state = {
  m_p : int;
  m_tables : (int, 'a cell list ref) Hashtbl.t array;
  m_orders : 'a cell list ref array; (* newest-first per partition *)
  m_hash_fn : Key.t -> int;
  m_sort_mode : bool;
  m_sorted_output : bool;
}

type 'a ext_state = {
  e_p : int;
  e_parts : 'a part array;
  e_hash_fn : Key.t -> int;
  e_sort_mode : bool;
  e_sorted_output : bool;
}

type 'a scan_state = {
  s_equal : int -> Key.single -> Key.single -> bool;
  mutable s_rev_cells : 'a cell list; (* newest-first *)
}

type 'a impl =
  | Mem of 'a mem_state
  | Ext of 'a ext_state
  | Scan of 'a scan_state

type 'a builder = {
  impl : 'a impl;
  b_tally : int ref option;
  b_parallel : int;
  b_parallel_keys : bool;
  b_batch : int;
  b_dict : bool; (* large builds may intern node keys *)
  b_keys_of : 'a -> Xseq.t list;
  b_reduce : ('a -> 'a -> 'a) option;
      (* eager aggregation: fold members per group instead of retaining
         them (see the reduce-mode helpers above) *)
  b_cost : 'a -> int;
      (* live-heap bytes a retained member pins beyond the bookkeeping
         constant; flush accounting is only as honest as this estimate *)
  mutable b_fed : int; (* global input index of the next tuple *)
  mutable b_feeding : bool;
      (* a feed is in flight: pool domains may be mutating partitions,
         so [relieve] must not touch them *)
}

let hash_fn_of = function
  | None -> Key.hash
  | Some h -> fun k -> h (Key.originals k)

(* How many groups an in-memory table is presized for: capped so a wild
   estimate cannot allocate an absurd bucket array, floored at the
   default so a low one costs nothing. *)
let presize_slots ~p est = max 64 (min ((est / p) + 1) 65536)

let builder ?hash ?tally ?spill ?presize ?cost ?reduce ?(parallel = 1)
    ?(parallel_keys = false) ?(detach = false) ?config ~mode ~keys_of () =
  let parallel = max 1 parallel in
  let config =
    match config with Some c -> c | None -> Xq_governor.Config.resolve ()
  in
  let impl =
    match mode with
    | `Scan equal -> Scan { s_equal = equal; s_rev_cells = [] }
    | (`Hash | `Sort _) as m ->
      let sort_mode, sorted_output =
        match m with `Hash -> (false, false) | `Sort so -> (true, so)
      in
      let hash_fn =
        match m with `Hash -> hash_fn_of hash | `Sort _ -> Key.hash
      in
      if spill_active spill then begin
        (* All [p] partitions replay concurrently in the merge phase, so
           each one's threshold is the watermark divided by [p]: their
           combined replay buffers stay within one watermark, which is
           exactly the headroom the CLI default leaves below the hard
           budget (watermark = budget / 2) — merge-phase growth cannot
           blow through the budget the flushes just averted. *)
        let p = parallel in
        let threshold = max (Governor.spill_watermark () / p) 4096 in
        let codec = Option.get spill in
        Ext
          {
            e_p = p;
            e_parts =
              Array.init p (fun _ ->
                  new_part ~detach ~codec ~reduce ~sort_mode ~threshold);
            e_hash_fn = hash_fn;
            e_sort_mode = sort_mode;
            e_sorted_output = sorted_output;
          }
      end
      else begin
        let p = parallel in
        let slots =
          match presize with
          | Some est when est > 0 -> presize_slots ~p est
          | _ -> 64
        in
        Mem
          {
            m_p = p;
            m_tables = Array.init p (fun _ -> Hashtbl.create slots);
            m_orders = Array.init p (fun _ -> ref []);
            m_hash_fn = hash_fn;
            m_sort_mode = sort_mode;
            m_sorted_output = sorted_output;
          }
      end
  in
  {
    impl;
    b_tally = tally;
    b_parallel = parallel;
    b_parallel_keys = parallel_keys;
    b_batch = config.Xq_governor.Config.batch;
    b_dict = config.Xq_governor.Config.dict && config.Xq_governor.Config.batch > 1;
    b_keys_of = keys_of;
    b_reduce = reduce;
    b_cost = (match cost with Some f -> f | None -> fun _ -> member_cost);
    b_fed = 0;
    b_feeding = false;
  }

let canonicalize_batch b slice =
  canonicalize_slice ~parallel:b.b_parallel ~parallel_keys:b.b_parallel_keys
    ~dict:b.b_dict ~keys_of:b.b_keys_of ~fed:b.b_fed slice

(* One probe loop over the slice indices partition [j] accepts. The
   governor is ticked at batch granularity (every 64 accepted tuples),
   not per tuple — amortizing the slow-tick bookkeeping is part of what
   batching buys. *)
let mem_insert m reduce tally slice keys hashes base j =
  let p = m.m_p in
  let table = m.m_tables.(j) and order = m.m_orders.(j) in
  let n = Array.length slice in
  let accepted = ref 0 in
  for i = 0 to n - 1 do
    let h = hashes.(i) in
    if p = 1 || (h land max_int) mod p = j then begin
      if !accepted land 63 = 0 then Governor.tick ();
      incr accepted;
      let key = keys.(i) in
      let bucket =
        match Hashtbl.find_opt table h with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add table h b;
          b
      in
      match
        List.find_opt
          (fun cell ->
            tick tally;
            Key.equal cell.c_key key)
          !bucket
      with
      | Some cell -> add_member reduce cell slice.(i)
      | None ->
        Governor.count_groups 1;
        let cell = { c_key = key; c_first = base + i; rev_members = [ slice.(i) ] } in
        bucket := cell :: !bucket;
        order := cell :: !order
    end
  done

let feed_mem b m slice =
  let keys = canonicalize_batch b slice in
  let hashes = Array.map m.m_hash_fn keys in
  let base = b.b_fed in
  let n = Array.length slice in
  if m.m_p = 1 || n < par_build_min then
    for j = 0 to m.m_p - 1 do
      mem_insert m b.b_reduce b.b_tally slice keys hashes base j
    done
  else begin
    let tallies = Array.make m.m_p 0 in
    Par.run_tasks
      (Array.init m.m_p (fun j ->
           fun () ->
             let t = ref 0 in
             mem_insert m b.b_reduce (Some t) slice keys hashes base j;
             tallies.(j) <- !t));
    match b.b_tally with
    | Some r -> r := !r + Array.fold_left ( + ) 0 tallies
    | None -> ()
  end;
  b.b_fed <- base + n

let ext_close_files e =
  Array.iter
    (fun part ->
      match part.pfile with Some f -> Spill.File.close f | None -> ())
    e.e_parts

let feed_ext b e slice =
  try
    let p = e.e_p in
    let n = Array.length slice in
    (* sub-slice at [ext_batch] so canonical keys for at most one small
       window exist before their tuples are inserted (and flushable) *)
    let off = ref 0 in
    while !off < n do
      let len = min ext_batch (n - !off) in
      let sub = if !off = 0 && len = n then slice else Array.sub slice !off len in
      let keys = canonicalize_batch b sub in
      let hashes = Array.map e.e_hash_fn keys in
      let base = b.b_fed in
      (* Under Gc-dominated pressure the estimate can sit above the
         watermark for the rest of the build, so the callback fires on
         every slow tick. Only flush once the table holds enough to be
         worth a frame, and collect right after so the freed keys and
         cells are actually reusable before the hard-budget check. *)
      let flush_floor = max 65536 (Governor.spill_watermark () / (16 * p)) in
      let pressure_flush j () =
        if e.e_parts.(j).live_charge >= flush_floor then begin
          flush_part e.e_parts.(j);
          Gc.full_major ()
        end
      in
      let insert_range j accept =
        Governor.with_pressure_callback (pressure_flush j)
          (fun () ->
            for i = 0 to len - 1 do
              if accept hashes.(i) then
                ext_insert ?tally:b.b_tally ~cost:b.b_cost e.e_parts.(j)
                  hashes.(i) keys.(i) sub.(i) (base + i)
            done)
      in
      if p = 1 then insert_range 0 (fun _ -> true)
      else
        Par.run_tasks
          (Array.init p (fun j ->
               fun () -> insert_range j (fun h -> (h land max_int) mod p = j)));
      b.b_fed <- base + len;
      off := !off + len
    done
  with exn ->
    ext_close_files e;
    raise exn

let finish_ext b e =
  Fun.protect
    ~finally:(fun () -> ext_close_files e)
    (fun () ->
      let p = e.e_p in
      let per_part = Array.make p [] in
      if p = 1 then per_part.(0) <- ext_part_cells ?tally:b.b_tally e.e_parts.(0)
      else
        Par.run_tasks
          (Array.init p (fun j ->
               fun () ->
                 per_part.(j) <- ext_part_cells ?tally:b.b_tally e.e_parts.(j)));
      let cells = List.concat (Array.to_list per_part) in
      let cells =
        if e.e_sort_mode && e.e_sorted_output then
          List.sort
            (fun a b ->
              let c = Key.compare a.c_key b.c_key in
              if c <> 0 then c else Int.compare a.c_first b.c_first)
            cells
        else List.sort (fun a b -> Int.compare a.c_first b.c_first) cells
      in
      Governor.count_groups (List.length cells);
      to_groups cells)

let feed_scan b s slice =
  let keys = canonicalize_batch b slice in
  Array.iteri
    (fun i (key : Key.t) ->
      Governor.tick ();
      let tuple = slice.(i) in
      (* compare against each existing group's representative, one key
         position at a time, short-circuiting on the first mismatch
         (unequal arity can never match) *)
      let ks = key.Key.singles in
      let nk = Array.length ks in
      let same cell =
        let cs = cell.c_key.Key.singles in
        let nc = Array.length cs in
        let rec go i =
          if i >= nk && i >= nc then true
          else if i >= nk || i >= nc then false
          else begin
            tick b.b_tally;
            s.s_equal i ks.(i) cs.(i) && go (i + 1)
          end
        in
        go 0
      in
      match List.find_opt same s.s_rev_cells with
      | Some cell -> add_member b.b_reduce cell tuple
      | None ->
        Governor.count_groups 1;
        s.s_rev_cells <-
          { c_key = key; c_first = 0; rev_members = [ tuple ] }
          :: s.s_rev_cells)
    keys;
  b.b_fed <- b.b_fed + Array.length slice

let feed b slice =
  if Array.length slice > 0 then begin
    b.b_feeding <- true;
    Fun.protect
      ~finally:(fun () -> b.b_feeding <- false)
      (fun () ->
        match b.impl with
        | Mem m -> feed_mem b m slice
        | Ext e -> feed_ext b e slice
        | Scan s -> feed_scan b s slice)
  end

(* Shed flushable external state from outside a feed window. Feeds
   register their own per-partition pressure callbacks, but those only
   cover the short insert windows; for a streamed scan nearly every
   governor tick lands in the parser, where the builder's retained
   members would otherwise just sit and grow until the hard trip. The
   executor's scan-side pressure callback calls this between vectors.
   No-op while a feed is in flight (pool domains may be mutating
   partitions) and for in-memory/scan builds, which have nothing to
   shed. *)
let relieve b =
  match b.impl with
  | Ext e when not b.b_feeding ->
    let floor = max 65536 (Governor.spill_watermark () / (16 * e.e_p)) in
    let shed = ref false in
    Array.iter
      (fun part ->
        if part.live_charge >= floor then begin
          flush_part part;
          shed := true
        end)
      e.e_parts;
    if !shed then Gc.full_major ()
  | Ext _ | Mem _ | Scan _ -> ()

let finish_mem b m =
  let cells =
    if m.m_p = 1 then List.rev !(m.m_orders.(0))
    else
      List.sort
        (fun a b -> Int.compare a.c_first b.c_first)
        (List.concat (Array.to_list (Array.map ( ! ) m.m_orders)))
  in
  let cells =
    if not (m.m_sort_mode && m.m_sorted_output) then cells
    else begin
      (* Only the group representatives are sorted — g·log g canonical
         comparisons instead of PR 1's n·log n subtree-walking ones. The
         sort is stable and cells arrive in first-encounter order, so
         ties (distinct keys the preorder conflates) keep exactly the
         order the old sort-the-tuples implementation produced. *)
      let arr = Array.of_list cells in
      Par.sort ~degree:b.b_parallel ~min_chunk:par_sort_min_chunk
        (fun x y ->
          tick b.b_tally;
          Governor.tick ();
          Key.compare x.c_key y.c_key)
        arr;
      Array.to_list arr
    end
  in
  to_groups cells

let finish b =
  match b.impl with
  | Mem m -> finish_mem b m
  | Ext e -> finish_ext b e
  | Scan s -> to_groups (List.rev s.s_rev_cells)

(* --- one-shot strategy entry points ------------------------------------- *)

let run_batched bld tuples =
  let arr = Array.of_list tuples in
  let n = Array.length arr in
  let bs = bld.b_batch in
  if bs >= n then feed bld arr
  else begin
    let base = ref 0 in
    while !base < n do
      let len = min bs (n - !base) in
      feed bld (Array.sub arr !base len);
      base := !base + len
    done
  end;
  finish bld

let group_hash ?hash ?tally ?spill ?presize ?(parallel = 1)
    ?(parallel_keys = false) ?config ~keys_of tuples =
  run_batched
    (builder ?hash ?tally ?spill ?presize ~parallel ~parallel_keys ?config
       ~mode:`Hash ~keys_of ())
    tuples

let group_sort ?tally ?(sorted_output = false) ?spill ?presize ?(parallel = 1)
    ?(parallel_keys = false) ?config ~keys_of tuples =
  run_batched
    (builder ?tally ?spill ?presize ~parallel ~parallel_keys ?config
       ~mode:(`Sort sorted_output) ~keys_of ())
    tuples

let group_scan ?tally ?(parallel = 1) ?(parallel_keys = false) ?config ~keys_of
    ~equal tuples =
  run_batched
    (builder ?tally ~parallel ~parallel_keys ?config ~mode:(`Scan equal)
       ~keys_of ())
    tuples

(* --- raw key-list comparison (tests) ------------------------------------ *)

let compare_key_lists a b = Key.compare (Key.canonicalize a) (Key.canonicalize b)
