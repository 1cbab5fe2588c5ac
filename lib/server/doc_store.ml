module Governor = Xq_governor.Governor

type entry = {
  e_node : Xq_xdm.Node.t;
  e_mtime : float;
  e_size : int;
  e_ino : int;
  e_bytes : int;
  mutable e_gen : int;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  cap_bytes : int;
  account : Governor.t option;
  mutable gen : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable resident : int;
}

let create ?(capacity_bytes = 256 * 1024 * 1024) ?account () =
  if capacity_bytes < 1 then
    invalid_arg "Doc_store.create: capacity_bytes must be >= 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 16;
    cap_bytes = capacity_bytes;
    account;
    gen = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    resident = 0;
  }

(* Every heap word of the tree, headers included: its nodes, strings and
   interned names (a parsed tree points only into itself). One walk per
   load, with no table of visited blocks. *)
let tree_bytes node = Xq_xdm.Node.heap_words node * (Sys.word_size / 8)

let charge t n =
  t.resident <- t.resident + n;
  match t.account with Some g -> Governor.charge_on g n | None -> ()

let uncharge t n =
  t.resident <- t.resident - n;
  match t.account with Some g -> Governor.uncharge_on g n | None -> ()

let touch t e =
  t.gen <- t.gen + 1;
  e.e_gen <- t.gen

let evict_lru ~keep t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        if k = keep then acc
        else
          match acc with
          | Some (_, best) when best.e_gen <= e.e_gen -> acc
          | _ -> Some (k, e))
      t.table None
  in
  match victim with
  | None -> false
  | Some (k, e) ->
    Hashtbl.remove t.table k;
    uncharge t e.e_bytes;
    t.evictions <- t.evictions + 1;
    true

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Cache identity is (mtime, size, inode): mtime alone misses
   same-second rewrites on coarse filesystems, mtime+size misses a
   rename-swap that preserves both (mv of a same-length variant keeps
   the old mtime) — the inode catches the swap, the pair catches
   in-place rewrites. *)
let stat path =
  let st = Unix.stat path in
  (st.Unix.st_mtime, st.Unix.st_size, st.Unix.st_ino)

let fresh e (mtime, size, ino) =
  e.e_mtime = mtime && e.e_size = size && e.e_ino = ino

let load t path =
  let st0 =
    try stat path
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  let restat () = try Some (stat path) with Unix.Unix_error _ -> None in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.table path with
        | None ->
          t.misses <- t.misses + 1;
          None
        | Some e -> begin
          (* revalidate against the file's identity *now*, under the
             lock — the pre-lock stat can predate a concurrent swap of
             the path, and serving off it would pin the stale tree *)
          match restat () with
          | Some st when fresh e st ->
            t.hits <- t.hits + 1;
            touch t e;
            Some e.e_node
          | _ ->
            (* the file changed underneath us: drop the stale tree now
               so a parse failure of the new content leaves nothing
               behind *)
            Hashtbl.remove t.table path;
            uncharge t e.e_bytes;
            t.invalidations <- t.invalidations + 1;
            t.misses <- t.misses + 1;
            None
        end)
  in
  match cached with
  | Some node -> node
  | None ->
    (* parse outside the lock: concurrent first loads of one path may
       both parse; the first insert wins and the loser's tree is
       dropped, trading a little duplicate work for no lock-held IO *)
    let node = Xq_xml.Xml_parse.parse_file path in
    let bytes = tree_bytes node in
    locked t (fun () ->
        match Hashtbl.find_opt t.table path with
        | Some e when fresh e st0 ->
          touch t e;
          e.e_node
        | other ->
          (match other with
           | Some e ->
             Hashtbl.remove t.table path;
             uncharge t e.e_bytes
           | None -> ());
          let mtime, size, ino = st0 in
          let e =
            {
              e_node = node;
              e_mtime = mtime;
              e_size = size;
              e_ino = ino;
              e_bytes = bytes;
              e_gen = 0;
            }
          in
          touch t e;
          Hashtbl.add t.table path e;
          charge t e.e_bytes;
          (* the newest entry is exempt: a single oversize document is
             still served resident rather than thrashing *)
          while t.resident > t.cap_bytes && evict_lru ~keep:path t do
            ()
          done;
          node)

let clear t =
  locked t (fun () ->
      Hashtbl.iter (fun _ e -> uncharge t e.e_bytes) t.table;
      Hashtbl.reset t.table)

type stats = {
  d_hits : int;
  d_misses : int;
  d_evictions : int;
  d_invalidations : int;
  d_entries : int;
  d_resident_bytes : int;
}

let stats t =
  locked t (fun () ->
      {
        d_hits = t.hits;
        d_misses = t.misses;
        d_evictions = t.evictions;
        d_invalidations = t.invalidations;
        d_entries = Hashtbl.length t.table;
        d_resident_bytes = t.resident;
      })
