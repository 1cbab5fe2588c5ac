(** Number formatting for per-record generator code, without [Printf]:
    each function returns the bytes of the [Printf] conversion it names. *)

(** [Printf.sprintf "%.2f"]: the C primitive [Printf] itself calls. *)
val fixed2 : float -> string

(** [Printf.sprintf "%0*d" width n] for [n >= 0]. *)
val zero_pad : int -> int -> string

(** [Printf.sprintf "%02d" n] for [n >= 0]; a table lookup below 100. *)
val two_digits : int -> string

(** [date y m d] is [Printf.sprintf "%04d-%02d-%02d" y m d]. *)
val date : int -> int -> int -> string

(** [time h m s] is [Printf.sprintf "T%02d:%02d:%02d" h m s]. *)
val time : int -> int -> int -> string
