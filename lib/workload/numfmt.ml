external format_float : string -> float -> string = "caml_format_float"

let fixed2 x = format_float "%.2f" x

let zero_pad width n =
  let s = string_of_int n in
  let k = width - String.length s in
  if k <= 0 then s else String.make k '0' ^ s

let two_digits_table = Array.init 100 (zero_pad 2)

let two_digits n = if n < 100 then two_digits_table.(n) else string_of_int n

let date y m d = String.concat "-" [ zero_pad 4 y; two_digits m; two_digits d ]

let time h m s =
  String.concat "" [ "T"; two_digits h; ":"; two_digits m; ":"; two_digits s ]
