open Xq_xml.Builder

type params = {
  books : int;
  publishers : int;
  years : int * int;
  author_pool : int;
  max_authors : int;
  missing_publisher_rate : int;
  with_categories : bool;
  seed : int;
}

let default =
  {
    books = 100;
    publishers = 8;
    years = (1990, 2004);
    author_pool = 30;
    max_authors = 3;
    missing_publisher_rate = 10;
    with_categories = false;
    seed = 42;
  }

(* A small ragged hierarchy, as in the paper's Section 5 example. *)
type cat = Cat of string * cat list

let category_forest =
  [
    Cat ("software",
         [ Cat ("db", [ Cat ("concurrency", []); Cat ("query-processing", []) ]);
           Cat ("distributed", []);
           Cat ("os", []) ]);
    Cat ("anthology", []);
    Cat ("theory", [ Cat ("logic", []); Cat ("complexity", []) ]);
  ]

let category_paths =
  let rec walk prefix (Cat (name, children)) =
    let path = if prefix = "" then name else prefix ^ "/" ^ name in
    path :: List.concat_map (walk path) children
  in
  List.concat_map (walk "") category_forest

(* Choose a random subtree prefix of the forest for one book. *)
let rec random_category rng (Cat (name, children)) depth =
  let kids =
    if depth <= 0 || children = [] then []
    else if Prng.one_in rng 2 then []
    else
      List.filteri (fun i _ -> i = 0 || Prng.one_in rng 2) children
      |> List.map (fun c -> random_category rng c (depth - 1))
  in
  el name kids

let generate p =
  let rng = Prng.create p.seed in
  let lo_year, hi_year = p.years in
  let publisher i = "Publisher " ^ Numfmt.two_digits i in
  let author i = "Author " ^ Numfmt.two_digits i in
  let book i =
    let n_authors = Prng.int rng (p.max_authors + 1) in
    let authors =
      List.init n_authors (fun _ -> el_text "author" (author (Prng.int rng p.author_pool)))
    in
    let pub =
      if p.missing_publisher_rate > 0 && Prng.one_in rng p.missing_publisher_rate
      then []
      else [ el_text "publisher" (publisher (Prng.int rng p.publishers)) ]
    in
    let year = lo_year + Prng.int rng (hi_year - lo_year + 1) in
    let price = 10.0 +. Prng.float rng 90.0 in
    let discount = Prng.float rng 10.0 in
    let categories =
      if not p.with_categories then []
      else begin
        let n = 1 + Prng.int rng 2 in
        let picks =
          List.init n (fun _ ->
              let top =
                List.nth category_forest (Prng.int rng (List.length category_forest))
              in
              random_category rng top 2)
        in
        [ el "categories" picks ]
      end
    in
    el "book"
      ([ el_text "title" ("Book " ^ string_of_int i) ]
       @ authors @ pub
       @ [ el_text "year" (string_of_int year);
           el_text "price" (Numfmt.fixed2 price);
           el_text "discount" (Numfmt.fixed2 discount) ]
       @ categories)
  in
  fill "bib" (fun add ->
      for i = 0 to p.books - 1 do
        add (book i)
      done)
