open Xq_xdm
open Xq_lang

module Smap = Map.Make (String)

type func = { fn_params : string list; fn_body : Ast.expr }

type focus = { item : Item.t; position : int; size : int }

type t = {
  vars : Xseq.t Smap.t;
  globals : Xseq.t Smap.t;
  funcs : (string * int, func) Hashtbl.t;
  order_mode : Ast.ordering_mode;
  foc : focus option;
  documents : Node.t Smap.t;
  collections : Node.t list Smap.t;
  default_coll : Node.t list option;
  flwor_runner : t -> Ast.flwor -> Xseq.t;
  config : Xq_governor.Config.t;
  detached : bool;
}

(* A context built without [with_flwor_runner] has no FLWOR engine: the
   engine lives above this library (the plan executor), which installs
   itself once per query. *)
let no_runner _ _ =
  invalid_arg "Context: no FLWOR runner installed (use Exec.query_context)"

let empty =
  {
    vars = Smap.empty;
    globals = Smap.empty;
    funcs = Hashtbl.create 8;
    order_mode = Ast.Ordered;
    foc = None;
    documents = Smap.empty;
    collections = Smap.empty;
    default_coll = None;
    flwor_runner = no_runner;
    config = Xq_governor.Config.default;
    detached = false;
  }

let of_prolog (p : Ast.prolog) =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ast.fun_def) ->
      let key = (Xname.to_string f.fun_name, List.length f.params) in
      let fn_params = List.map (fun p -> p.Ast.param_name) f.params in
      Hashtbl.replace funcs key { fn_params; fn_body = f.body })
    p.functions;
  let order_mode = Option.value p.ordering ~default:Ast.Ordered in
  { empty with funcs; order_mode }

let ordering ctx = ctx.order_mode

let bind ctx v value = { ctx with vars = Smap.add v value ctx.vars }

let bind_many ctx bindings =
  List.fold_left (fun ctx (v, value) -> bind ctx v value) ctx bindings

let lookup ctx v = Smap.find_opt v ctx.vars

let lookup_exn ctx v =
  match Smap.find_opt v ctx.vars with
  | Some value -> value
  | None -> Xerror.failf XPST0008 "undefined variable $%s" v

let find_function ctx name arity =
  Hashtbl.find_opt ctx.funcs (Xname.to_string name, arity)

let function_scope ctx args =
  let vars =
    List.fold_left
      (fun m (v, value) -> Smap.add v value m)
      ctx.globals args
  in
  { ctx with vars; foc = None }

let bind_global ctx v value =
  {
    ctx with
    vars = Smap.add v value ctx.vars;
    globals = Smap.add v value ctx.globals;
  }

let with_focus ctx f = { ctx with foc = Some f }

let focus ctx = ctx.foc

let focus_exn ctx =
  match ctx.foc with
  | Some f -> f
  | None -> Xerror.fail XPDY0002 "no context item is defined here"

let add_document ctx ~uri node =
  { ctx with documents = Smap.add uri node ctx.documents }

let add_collection ctx ~name nodes =
  { ctx with collections = Smap.add name nodes ctx.collections }

let set_default_collection ctx nodes = { ctx with default_coll = Some nodes }

let find_document ctx uri = Smap.find_opt uri ctx.documents

let find_collection ctx name = Smap.find_opt name ctx.collections

let default_collection ctx = ctx.default_coll

let with_flwor_runner ctx runner = { ctx with flwor_runner = runner }

let run_flwor ctx f = ctx.flwor_runner ctx f

let with_config ctx config = { ctx with config }
let config ctx = ctx.config

let with_detached ctx detached = { ctx with detached }
let detached ctx = ctx.detached
