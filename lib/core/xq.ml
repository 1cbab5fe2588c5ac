module Xdm = Xq_xdm
module Xml = Xq_xml
module Lang = Xq_lang
module Engine = Xq_engine
module Rewrite = Xq_rewrite
module Algebra = Xq_algebra
module Config = Xq_governor.Config
module Par = Xq_par.Par
module Batch = Xq_par.Batch
module Governor = Xq_governor.Governor
module Spill = Xq_spill.Spill
module Refimpl = Xq_refimpl.Refimpl
module Qgen = Xq_qgen.Qgen
module Shrink = Xq_qgen.Shrink
module Fuzz = Xq_fuzzer.Fuzz
module Pipeline = Xq_pipeline.Pipeline

type doc = Xq_xdm.Node.t
type result = Xq_xdm.Xseq.t

let load_string s = Xq_xml.Xml_parse.parse s
let load_file path = Xq_xml.Xml_parse.parse_file path

let parse src = Xq_lang.Parser.parse_query src
let check q = Xq_lang.Static.check_query q

let run_query ?check ?documents ?collections ?default_collection doc q =
  Xq_algebra.Exec.eval_query ?check ?documents ?collections ?default_collection
    ~context_node:doc q

let run ?documents ?collections ?default_collection doc src =
  run_query ?documents ?collections ?default_collection doc (parse src)

let run_rewritten doc src =
  let q = parse src in
  Xq_lang.Static.check_query q;
  let q' = Xq_rewrite.Rewrite.rewrite_query q in
  run_query ~check:false doc q'

let to_xml ?indent seq = Xq_xml.Serialize.sequence ?indent seq

let to_strings seq = List.map Xq_xdm.Item.string_value seq

let length = List.length
