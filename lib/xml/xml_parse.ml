exception Parse_error = Xml_reader.Parse_error

let default_max_depth = Xml_reader.default_max_depth

let parse ?keep_whitespace ?max_depth ?max_bytes src =
  Xml_reader.document ?keep_whitespace ?max_depth ?max_bytes
    (Xml_reader.of_string src)

let parse_fragment ?keep_whitespace ?max_depth ?max_bytes src =
  Xml_reader.fragment ?keep_whitespace ?max_depth ?max_bytes
    (Xml_reader.of_string src)

let parse_file ?keep_whitespace ?max_depth ?max_bytes path =
  Xml_reader.with_file path
    (Xml_reader.document ?keep_whitespace ?max_depth ?max_bytes)

let error_to_string = function
  | Parse_error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _ -> None
