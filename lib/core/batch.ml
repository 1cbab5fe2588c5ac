module Config = Xq_governor.Config

let default_size = Config.default_batch
let size () = (Config.resolve ()).Config.batch
