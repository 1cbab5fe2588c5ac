open Xq_xml.Builder

type params = {
  sales : int;
  years : int * int;
  products : int;
  seed : int;
}

let default = { sales = 500; years = (2002, 2004); products = 12; seed = 7 }

let state_regions =
  [
    ("CA", "West"); ("OR", "West"); ("WA", "West"); ("NV", "West");
    ("NY", "East"); ("MA", "East"); ("NJ", "East"); ("CT", "East");
    ("TX", "South"); ("FL", "South"); ("GA", "South");
    ("IL", "Midwest"); ("OH", "Midwest"); ("MI", "Midwest");
  ]

let regions =
  List.sort_uniq compare (List.map snd state_regions)

let products_pool =
  [| "Green Tea"; "Black Tea"; "Oolong"; "Espresso"; "Drip Coffee";
     "Cold Brew"; "Matcha"; "Chai"; "Cocoa"; "Yerba Mate"; "Rooibos";
     "Earl Grey"; "Sencha"; "Pu-erh"; "Lapsang"; "White Tea" |]

let state_array = Array.of_list state_regions

let generate p =
  let rng = Prng.create p.seed in
  let lo, hi = p.years in
  let sale _ =
    let state, region = Prng.pick rng state_array in
    let year = lo + Prng.int rng (hi - lo + 1) in
    let month = 1 + Prng.int rng 12 in
    let day = 1 + Prng.int rng 28 in
    let hour = Prng.int rng 24 and minute = Prng.int rng 60 and sec = Prng.int rng 60 in
    let timestamp = Numfmt.date year month day ^ Numfmt.time hour minute sec in
    let product = products_pool.(Prng.int rng (min p.products (Array.length products_pool))) in
    let quantity = 1 + Prng.int rng 20 in
    let price = 1.0 +. Prng.float rng 49.0 in
    el "sale"
      [ el_text "timestamp" timestamp;
        el_text "product" product;
        el_text "state" state;
        el_text "region" region;
        el_text "quantity" (string_of_int quantity);
        el_text "price" (Numfmt.fixed2 price) ]
  in
  fill "sales" (fun add ->
      for i = 0 to p.sales - 1 do
        add (sale i)
      done)
