open Xq_xdm

(* Per-group running aggregate state for the eager-aggregation rewrite.

   When a nest variable is consumed only by fn:sum/count/avg/min/max,
   the executor folds each member's value into one of these instead of
   retaining the member list (ISSUE 10 / the hash-vs-sort group-by
   study's pre-aggregation effect). One accumulator serves every
   aggregate applied to the same variable: it tracks the count, the
   numeric running sum (for sum/avg) and the running min/max fold
   side by side, so `<r>{count($v), sum($v)}</r>` needs a single state.

   The folds replicate the builtin aggregates exactly, item by item in
   input order — including their error behaviour. Errors do not raise
   here: the aggregate call site is downstream of the group build (in
   the return expression), so an error must surface exactly where and
   when the unrewritten plan would have raised it. Instead the first
   error per fold family is recorded sticky, and {!finish} returns it
   for the executor to deliver at the original call site (via the
   internal unwrap builtin). A NaN keeps min/max folds where they are
   (Unordered comparisons never move [best]), matching the builtin.

   Exactness caveat (documented in README): accumulator {!merge} only
   happens when a spilled group is re-encountered — it adds partial
   float sums (reassociation) and compares partial min/max bests in one
   step rather than replaying the later items one by one. Error *codes*
   and integer results are unaffected; float results can differ in the
   last ulp from the unrewritten plan only for spilled groups with
   non-associative float data, and an Incomparable error *message* can
   name the partial best instead of the global one. The differential
   sweeps pin byte-identity on integer/small-decimal data, where the
   fold is exact. *)

type numeric_err =
  | Non_numeric of string  (* FORG0006: dynamic type name of the item *)
  | Bad_cast of string     (* FORG0001: untyped lexical that won't parse *)

type order_err =
  | Incomparable_pair of string * string
      (* FORG0006: (new item's type, best-so-far's type) *)
  | Order_cast of string   (* FORG0001, from norming an untyped item *)

type numeric_ty = [ `Int | `Dec | `Dbl ]

type t = {
  mutable n : int;  (* item count; atomization is 1:1, so = value count *)
  mutable total : float;
  mutable ty : numeric_ty;
  mutable num_err : numeric_err option;
  mutable best_min : Atomic.t option;
  mutable min_err : order_err option;
  mutable best_max : Atomic.t option;
  mutable max_err : order_err option;
  mutable nest_err : (Xerror.code * string) option;
      (* a dynamic error raised by the nest expression itself for some
         member — re-raised before any group output is pushed, exactly
         when the unrewritten plan's materialization would have *)
}

let create () =
  {
    n = 0;
    total = 0.;
    ty = `Int;
    num_err = None;
    best_min = None;
    min_err = None;
    best_max = None;
    max_err = None;
    nest_err = None;
  }

let poison_nest acc code msg =
  if acc.nest_err = None then acc.nest_err <- Some (code, msg)

let nest_err acc = acc.nest_err

(* Builtins.to_number on an untyped atomic, without raising. *)
let parse_untyped s = float_of_string_opt (String.trim s)

let join_ty a b =
  match a, b with
  | `Dbl, _ | _, `Dbl -> `Dbl
  | `Dec, _ | _, `Dec -> `Dec
  | `Int, `Int -> `Int

(* One step of the sum/avg fold (Builtins.numeric_values +
   common_numeric_type, fused): first bad item sticks. *)
let step_numeric acc a =
  match acc.num_err with
  | Some _ -> ()
  | None -> begin
    match a with
    | Atomic.Int i ->
      acc.total <- acc.total +. float_of_int i
    | Atomic.Dec f ->
      acc.total <- acc.total +. f;
      acc.ty <- join_ty acc.ty `Dec
    | Atomic.Dbl f ->
      acc.total <- acc.total +. f;
      acc.ty <- `Dbl
    | Atomic.Untyped s -> begin
      match parse_untyped s with
      | Some f ->
        acc.total <- acc.total +. f;
        acc.ty <- `Dbl
      | None -> acc.num_err <- Some (Bad_cast s)
    end
    | _ -> acc.num_err <- Some (Non_numeric (Atomic.type_name a))
  end

(* One step of the min/max fold (Builtins.minmax): untyped norms to
   double first, NaN comparisons keep the current best, an incomparable
   pair is a sticky error naming (new, best) like the builtin does. *)
let step_order ~pick best err a =
  match !err with
  | Some _ -> ()
  | None -> begin
    let normed =
      match a with
      | Atomic.Untyped s -> begin
        match parse_untyped s with
        | Some f -> Ok (Atomic.Dbl f)
        | None -> Error (Order_cast s)
      end
      | _ -> Ok a
    in
    match normed with
    | Error e -> err := Some e
    | Ok v -> begin
      match !best with
      | None -> best := Some v
      | Some b -> begin
        match Atomic.value_compare v b with
        | Atomic.Ordered c -> if pick c then best := Some v
        | Atomic.Unordered -> ()
        | Atomic.Incomparable ->
          err := Some (Incomparable_pair (Atomic.type_name v, Atomic.type_name b))
      end
    end
  end

(* Fold one member's value (the nest expression's result for one tuple)
   into the accumulator, item by item in sequence order. *)
let step acc (seq : Xseq.t) =
  List.iter
    (fun item ->
      let a = Item.atomize item in
      acc.n <- acc.n + 1;
      step_numeric acc a;
      let bmin = ref acc.best_min and emin = ref acc.min_err in
      step_order ~pick:(fun c -> c < 0) bmin emin a;
      acc.best_min <- !bmin;
      acc.min_err <- !emin;
      let bmax = ref acc.best_max and emax = ref acc.max_err in
      step_order ~pick:(fun c -> c > 0) bmax emax a;
      acc.best_max <- !bmax;
      acc.max_err <- !emax)
    seq

(* The step for a slot only [count] reads: fn:count does not atomize,
   so the other folds (and the atomization feeding them) are skipped. *)
let step_count acc (seq : Xseq.t) = acc.n <- acc.n + List.length seq

(* Merge a later partial into an earlier one (spill re-encounter).
   Earlier state wins every sticky error; the later best folds in as one
   comparison step. Mutates and returns [a]. *)
let merge a b =
  a.n <- a.n + b.n;
  a.total <- a.total +. b.total;
  a.ty <- join_ty a.ty b.ty;
  if a.num_err = None then a.num_err <- b.num_err;
  let merge_order ~pick best err b_best b_err =
    if !err = None then begin
      (match b_best with
       | None -> ()
       | Some v -> begin
         match !best with
         | None -> best := Some v
         | Some cur -> begin
           match Atomic.value_compare v cur with
           | Atomic.Ordered c -> if pick c then best := Some v
           | Atomic.Unordered -> ()
           | Atomic.Incomparable ->
             err :=
               Some
                 (Incomparable_pair (Atomic.type_name v, Atomic.type_name cur))
         end
       end);
      if !err = None then err := b_err
    end
  in
  let bmin = ref a.best_min and emin = ref a.min_err in
  merge_order ~pick:(fun c -> c < 0) bmin emin b.best_min b.min_err;
  a.best_min <- !bmin;
  a.min_err <- !emin;
  let bmax = ref a.best_max and emax = ref a.max_err in
  merge_order ~pick:(fun c -> c > 0) bmax emax b.best_max b.max_err;
  a.best_max <- !bmax;
  a.max_err <- !emax;
  if a.nest_err = None then a.nest_err <- b.nest_err;
  a

(* --- finishing ---------------------------------------------------------- *)

type kind = Count | Sum | Avg | Min | Max

let kind_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"

let kind_of_name = function
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "avg" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

(* Builtins.wrap_numeric *)
let wrap_numeric ty f =
  match ty with
  | `Int when Float.is_integer f -> Item.of_int (int_of_float f)
  | `Int | `Dec -> Item.Atomic (Atomic.Dec f)
  | `Dbl -> Item.Atomic (Atomic.Dbl f)

let numeric_result name acc =
  match acc.num_err with
  | Some (Non_numeric tn) ->
    Error
      ( Xerror.FORG0006,
        Printf.sprintf "%s: non-numeric item of type %s" name tn )
  | Some (Bad_cast s) ->
    Error (Xerror.FORG0001, Printf.sprintf "cannot cast %S to a number" s)
  | None -> Ok ()

let order_result name err =
  match err with
  | Some (Incomparable_pair (a, b)) ->
    Error
      ( Xerror.FORG0006,
        Printf.sprintf "%s: incomparable items %s and %s" name a b )
  | Some (Order_cast s) ->
    Error (Xerror.FORG0001, Printf.sprintf "cannot cast %S to a number" s)
  | None -> Ok ()

(* The aggregate's value for the group — or the error the builtin would
   have raised at its call site. *)
let finish acc kind : (Xseq.t, Xerror.code * string) result =
  match kind with
  | Count -> Ok [ Item.of_int acc.n ]
  | Sum ->
    if acc.n = 0 then Ok [ Item.of_int 0 ]
    else begin
      match numeric_result "sum" acc with
      | Error _ as e -> e
      | Ok () -> Ok [ wrap_numeric acc.ty acc.total ]
    end
  | Avg ->
    if acc.n = 0 then Ok []
    else begin
      match numeric_result "avg" acc with
      | Error _ as e -> e
      | Ok () ->
        let ty = match acc.ty with `Int -> `Dec | t -> t in
        Ok [ wrap_numeric ty (acc.total /. float_of_int acc.n) ]
    end
  | Min ->
    if acc.n = 0 then Ok []
    else begin
      match order_result "min" acc.min_err with
      | Error _ as e -> e
      | Ok () -> Ok [ Item.Atomic (Option.get acc.best_min) ]
    end
  | Max ->
    if acc.n = 0 then Ok []
    else begin
      match order_result "max" acc.max_err with
      | Error _ as e -> e
      | Ok () -> Ok [ Item.Atomic (Option.get acc.best_max) ]
    end

(* --- spill codec --------------------------------------------------------- *)

(* Encoded accumulator layout (all tags validated on decode):
     varint n            (>= 0)
     float  total
     tag    ty           (0 `Int | 1 `Dec | 2 `Dbl)
     opt    num_err      (tag 0 Non_numeric string | 1 Bad_cast string)
     opt    best_min atom
     opt    min_err      (tag 0 Incomparable_pair s s | 1 Order_cast s)
     opt    best_max atom
     opt    max_err
     opt    nest_err     (code string, message string)
   Spill frames carrying these are O(1) per group — the whole point of
   the rewrite's external-grouping story. *)

let put_numeric_err buf = function
  | Non_numeric s ->
    Binio.put_varint buf 0;
    Binio.put_string buf s
  | Bad_cast s ->
    Binio.put_varint buf 1;
    Binio.put_string buf s

let get_numeric_err r =
  match Binio.get_varint r with
  | 0 -> Non_numeric (Binio.get_string r)
  | 1 -> Bad_cast (Binio.get_string r)
  | t -> raise (Binio.Corrupt (Printf.sprintf "bad numeric-error tag %d" t))

let put_order_err buf = function
  | Incomparable_pair (a, b) ->
    Binio.put_varint buf 0;
    Binio.put_string buf a;
    Binio.put_string buf b
  | Order_cast s ->
    Binio.put_varint buf 1;
    Binio.put_string buf s

let get_order_err r =
  match Binio.get_varint r with
  | 0 ->
    let a = Binio.get_string r in
    let b = Binio.get_string r in
    Incomparable_pair (a, b)
  | 1 -> Order_cast (Binio.get_string r)
  | t -> raise (Binio.Corrupt (Printf.sprintf "bad order-error tag %d" t))

let put_nest_err buf (code, msg) =
  Binio.put_string buf (Xerror.code_to_string code);
  Binio.put_string buf msg

let get_nest_err r =
  let code_s = Binio.get_string r in
  let msg = Binio.get_string r in
  match Xerror.code_of_string code_s with
  | Some code -> (code, msg)
  | None -> raise (Binio.Corrupt ("unknown error code " ^ code_s))

let encode buf acc =
  Binio.put_varint buf acc.n;
  Binio.put_float buf acc.total;
  Binio.put_varint buf
    (match acc.ty with `Int -> 0 | `Dec -> 1 | `Dbl -> 2);
  Binio.put_opt put_numeric_err buf acc.num_err;
  Binio.put_opt Binio.put_atom buf acc.best_min;
  Binio.put_opt put_order_err buf acc.min_err;
  Binio.put_opt Binio.put_atom buf acc.best_max;
  Binio.put_opt put_order_err buf acc.max_err;
  Binio.put_opt put_nest_err buf acc.nest_err

let decode r =
  let n = Binio.get_varint r in
  if n < 0 then raise (Binio.Corrupt "negative accumulator count");
  let total = Binio.get_float r in
  let ty =
    match Binio.get_varint r with
    | 0 -> `Int
    | 1 -> `Dec
    | 2 -> `Dbl
    | t -> raise (Binio.Corrupt (Printf.sprintf "bad numeric-type tag %d" t))
  in
  let num_err = Binio.get_opt get_numeric_err r in
  let best_min = Binio.get_opt Binio.get_atom r in
  let min_err = Binio.get_opt get_order_err r in
  let best_max = Binio.get_opt Binio.get_atom r in
  let max_err = Binio.get_opt get_order_err r in
  let nest_err = Binio.get_opt get_nest_err r in
  { n; total; ty; num_err; best_min; min_err; best_max; max_err; nest_err }

(* Rough live-heap bytes one accumulator pins — what the governor is
   charged per retained group in place of the member-list bytes. *)
let charged_bytes acc =
  let atom_cost = function
    | Some (Atomic.Str s | Atomic.Untyped s) -> 32 + String.length s
    | Some _ -> 32
    | None -> 0
  in
  let err_cost = function None -> 0 | Some _ -> 64 in
  96
  + atom_cost acc.best_min
  + atom_cost acc.best_max
  + err_cost acc.num_err
  + err_cost acc.min_err
  + err_cost acc.max_err
  + match acc.nest_err with None -> 0 | Some (_, m) -> 64 + String.length m

(* --- call-site plumbing ------------------------------------------------ *)

(* "!" cannot appear in an NCName, so neither name can collide with (or
   be spelled by) user queries. *)
let unwrap_local = "agg-unwrap!"

let poison_tag = "!err"

let mangle v kind = v ^ "!" ^ kind_name kind
