(* The three workloads: their standing query, their carrier and the
   seeded input each one feeds the coordinator (BENCHMARK.json and
   README.md say why each was chosen).  Ground truth is computed here,
   once per input and before any timing, so the timed loop drives only
   the registry. *)

module Query = Wd_view.Query
module Stream = Wd_workload.Stream
module Http_trace = Wd_workload.Http_trace

type carrier = Sim | Tcp

let carrier_name = function Sim -> "sim" | Tcp -> "tcp"

type t = {
  name : string;
  query : string;  (** the standing query's spec *)
  carrier : carrier;
  input : string;  (** the generated input, in words *)
  events : int;  (** input size (for Http_trace: requests) *)
  generate : seed:int -> events:int -> Stream.t;
}

(* The registry's hash seed.  Fixed, so that [--seed] changes the input
   and nothing else. *)
let registry_seed = 1
let chunk = 4096

let zipf ~sites ~seed ~events =
  Wd_workload.Stream_gen.zipf ~seed ~sites ~events
    ~universe:(max 2 (events / 2))
    ()

(* Four days of the WorldCup-like log back to back, each with its own
   clients.  Day by day keeps the generator's request list to a quarter
   of the input. *)
let http_days ~seed ~events =
  let days = 4 in
  let f =
    Float.of_int events /. Float.of_int (days * Http_trace.default.requests)
  in
  Stream.concat
    (List.init days (fun d ->
         let cfg = Http_trace.scaled ~seed:((seed * days) + d) f in
         let s =
           Http_trace.view cfg Http_trace.Client_id Http_trace.Per_region
             (Http_trace.generate cfg)
         in
         Stream.make ~sites:s.Stream.sites
           ~items:(Array.map (( + ) (d * cfg.clients)) s.Stream.items)))

(* Inputs hold over 1000 chunks, so that ten chunks lie beyond the p99
   of a repetition's chunk times.  sim-k100-ds holds 2048: about ten of
   its chunks carry a sampling-level change, a broadcast to all 100
   sites that takes four to six times an ordinary chunk, and over 1024
   chunks its p99 fell between those and the rest, on one side or the
   other depending on the seed.  Each workload keeps the state its
   coordinator touches per update within a few MB: on the shared
   virtual machine the bounds were set on, memory beyond the core's
   2 MB L2 answered in 110 to 160 ns, moving with the neighbours'
   traffic, and a workload working out of it moved with them (see
   README.md). *)
let all =
  [
    {
      name = "sim-http-clients";
      query = "dc:ls:sketch=fmc,alpha=0.1,theta=0.05";
      carrier = Sim;
      input = "Http_trace clientID view, 4 region sites, 4 days";
      events = 3_700_000;
      generate = http_days;
    };
    {
      name = "tcp-k1000-dc";
      query = "dc:ls:sketch=fmc,alpha=0.3,theta=0.05";
      carrier = Tcp;
      input = "zipf(1.0) over events/2 items, 1000 sites";
      events = 1 lsl 22;
      generate = zipf ~sites:1000;
    };
    {
      name = "sim-k100-ds";
      query = "ds:lco:theta=0.25,threshold=1000";
      carrier = Sim;
      input = "zipf(1.0) over events/2 items, 100 sites";
      events = 1 lsl 23;
      generate = zipf ~sites:100;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let query w =
  match Query.of_spec w.query with
  | Ok q -> q
  | Error e ->
    invalid_arg (Printf.sprintf "wdbench: bad query %S: %s" w.query e)

(* A generated input with its offline ground truth. *)
type input = {
  stream : Stream.t;
  n : int;
  sites : int;
  distinct : int;
  truth_at : int array;
      (** exact distinct count after each [chunk]-update chunk *)
  counts : int array;  (** exact multiplicity of every item, by item *)
}

let chunks n = (n + chunk - 1) / chunk

let prepare stream =
  let items = stream.Stream.items in
  let n = Array.length items in
  if n = 0 then invalid_arg "wdbench: empty input";
  let top = Array.fold_left max 0 items in
  if Array.exists (fun v -> v < 0) items || top > 1 lsl 28 then
    invalid_arg "wdbench: input items must lie in [0, 2^28]";
  let counts = Array.make (top + 1) 0 in
  let truth_at = Array.make (chunks n) 0 in
  let distinct = ref 0 in
  Array.iteri
    (fun j v ->
      if counts.(v) = 0 then incr distinct;
      counts.(v) <- counts.(v) + 1;
      if (j + 1) mod chunk = 0 || j = n - 1 then
        truth_at.(j / chunk) <- !distinct)
    items;
  {
    stream;
    n;
    sites = Stream.num_sites stream;
    distinct = !distinct;
    truth_at;
    counts;
  }
