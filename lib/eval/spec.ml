(* Declarative experiment-matrix cells for the eval harness. *)

module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module W = Wd_protocol.Window_tracker

type sketch = Fm | Bjkst | Hll | Fmc

let sketch_to_string = function
  | Fm -> "fm"
  | Bjkst -> "bjkst"
  | Hll -> "hll"
  | Fmc -> "fmc"

let all_sketches = [ Fm; Bjkst; Hll ]

type estimator = Classic | Mle

let estimator_to_string = function Classic -> "classic" | Mle -> "mle"

type workload = Zipf | Two_phase | Http_trace

let workload_to_string = function
  | Zipf -> "zipf"
  | Two_phase -> "two_phase"
  | Http_trace -> "http_trace"

type transport = Sim | Socket | Tcp

let transport_to_string = function
  | Sim -> "sim"
  | Socket -> "socket"
  | Tcp -> "tcp"

type protocol =
  | Dc of Dc.algorithm  (* EC is [Dc EC] *)
  | Ds of Ds.algorithm  (* EDS is [Ds EDS] *)
  | Hh of Dc.algorithm
  | Window of W.algorithm
  | Yz_hh  (* Yi–Zhang frequency heavy hitters; alpha is its epsilon *)
  | Yz_q  (* Yi–Zhang duplicate-resilient quantiles; alpha is its epsilon *)

let protocol_family = function
  | Dc _ -> "dc"
  | Ds _ -> "ds"
  | Hh _ -> "hh"
  | Window _ -> "window"
  | Yz_hh -> "yzhh"
  | Yz_q -> "yzq"

let protocol_algorithm = function
  | Dc a -> Dc.algorithm_to_string a
  | Ds a -> Ds.algorithm_to_string a
  | Hh a -> Dc.algorithm_to_string a
  | Window a -> W.algorithm_to_string a
  | Yz_hh | Yz_q -> "YZ"

type cell = {
  protocol : protocol;
  sketch : sketch;
      (* which mergeable distinct sketch backs the trackers; only the
         sketch-based protocols consult it (grids collapse the axis for
         EC/EDS, whose estimators carry no sketch) *)
  estimator : estimator;
      (* Classic bias-corrected estimates or the Clifford–Cosma MLE;
         consulted by the same protocols as [sketch] *)
  alpha : float;  (* total relative-error budget (the paper's epsilon) *)
  delta : float;  (* failure probability; confidence is 1 - delta *)
  theta_frac : float;  (* lag share: theta = theta_frac * alpha *)
  sites : int;
  events : int;
  dup : float;  (* target duplication factor dial (zipf: universe = events/dup) *)
  workload : workload;
  transport : transport;
  faults : string option;  (* Wd_net.Faults.of_spec syntax, seeded per rep *)
  views : int;
      (* standing views sharing the run's stream: 1 = just the primary;
         N > 1 adds N-1 key-class fanout satellites to the registry *)
  topology : string option;
      (* Wd_net.Topology.of_spec syntax; [None] is the flat star.  A
         tree routes contributions site->aggregator->root with per-hop
         ledger accounting, and the cell's bytes become the
         backbone-inclusive grand total.  HTTP cells with a topology
         switch to the per-server site view (29 sites), so
         [tree:regions=4] reproduces the paper's hierarchical CDN
         deployment: servers under regional aggregators under the
         root. *)
}

let theta cell = cell.theta_frac *. cell.alpha

(* Sketch accuracy left after the lag share of the budget. *)
let sketch_alpha cell = cell.alpha -. theta cell

(* Classic cells keep the pre-estimator-axis labels so committed
   baselines stay joinable; Mle tags the sketch component. *)
let sketch_label cell =
  match cell.estimator with
  | Classic -> sketch_to_string cell.sketch
  | Mle -> sketch_to_string cell.sketch ^ "+mle"

let id cell =
  String.concat "-"
    ([
       protocol_family cell.protocol;
       protocol_algorithm cell.protocol;
       sketch_label cell;
       Printf.sprintf "a%g" cell.alpha;
       Printf.sprintf "k%d" cell.sites;
       workload_to_string cell.workload;
       Printf.sprintf "n%d" cell.events;
       transport_to_string cell.transport;
     ]
    @ (if cell.views > 1 then [ Printf.sprintf "v%d" cell.views ] else [])
    @ (match cell.topology with None -> [] | Some t -> [ "topo:" ^ t ])
    @ match cell.faults with None -> [] | Some f -> [ "faults:" ^ f ])

let base ?(sketch = Fm) ?(estimator = Classic) ?(alpha = 0.1) ?(delta = 0.1)
    ?(theta_frac = 0.3) ?(sites = 4) ?(events = 120_000) ?(dup = 3.0)
    ?(workload = Zipf) ?(transport = Sim) ?faults ?(views = 1) ?topology
    protocol =
  {
    protocol;
    sketch;
    estimator;
    alpha;
    delta;
    theta_frac;
    sites;
    events;
    dup;
    workload;
    transport;
    faults;
    views;
    topology;
  }

let small_alphas = [ 0.05; 0.1; 0.2 ]

(* The acceptance grid: EC/EDS/DC/DS x {FM, BJKST, HLL, FMC} x alpha x
   estimator.  The sketch axis collapses for the exact baselines (EC
   counts items and EDS forwards updates — no sketch to vary) and for
   the sampler-based DS protocol, so those run once per alpha; DC
   (represented by LS, the paper's winner) spans the full sketch axis.
   The concentrated-hashing FM family runs at every alpha, and the MLE
   estimator rides along on one cell per sketch family that supports it
   at the default alpha.  Two smoke cells run the stream carrier, one
   over a Unix-domain path with a relay process per site and one over
   TCP with two sites per relay, so both addresses are exercised by
   every eval run. *)
let small () =
  let dc_cells =
    List.concat_map
      (fun alpha ->
        List.map
          (fun sk -> base ~sketch:sk ~alpha (Dc Dc.LS))
          (all_sketches @ [ Fmc ]))
      small_alphas
  in
  let mle_cells =
    List.map
      (fun sk -> base ~sketch:sk ~estimator:Mle (Dc Dc.LS))
      [ Fm; Hll; Fmc ]
  in
  let baseline_cells =
    List.concat_map
      (fun alpha ->
        [ base ~alpha (Dc Dc.EC); base ~alpha (Ds Ds.LCO);
          base ~alpha (Ds Ds.EDS) ])
      small_alphas
  in
  let wire_smoke =
    [
      base ~alpha:0.1 ~events:20_000 ~transport:Socket (Dc Dc.LS);
      base ~alpha:0.1 ~events:20_000 ~transport:Tcp (Dc Dc.LS);
    ]
  in
  (* Multi-view smoke: the default DC(LS) cell re-run with 99 key-class
     fanout satellites sharing the primary's hash-once stream.  The
     primary's accuracy must be unchanged by the fan-out, so this cell's
     err/bytes join 1:1 against the views-free LS-fm cell. *)
  let view_cells = [ base ~views:100 (Dc Dc.LS) ] in
  (* Hierarchical cells: the default DC(LS) routed through two regional
     aggregators, the HH tracker on the WorldCup trace's per-server view
     under the paper's 4-region backbone, the Yi–Zhang heavy-hitter
     contender on the same deployment (its bytes must undercut HH's —
     that delta is what "optimal tracking" buys), and the Yi–Zhang
     duplicate-resilient quantile tracker on the zipf workload behind
     the same two-aggregator tree as the DC cell. *)
  let tree_cells =
    [
      base ~topology:"tree:regions=2" (Dc Dc.LS);
      base ~workload:Http_trace ~events:40_000 ~topology:"tree:regions=4"
        (Hh Dc.LS);
      base ~workload:Http_trace ~events:40_000 ~topology:"tree:regions=4"
        Yz_hh;
      base ~topology:"tree:regions=2" Yz_q;
    ]
  in
  dc_cells @ mle_cells @ baseline_cells @ wire_smoke @ view_cells
  @ tree_cells

(* The full matrix adds the remaining DC algorithms, the DS sharing
   variants, the paper's two-phase and HTTP workloads, a fault-plan
   column, a wider site count, and the HH / sliding-window trackers. *)
let full () =
  small ()
  @ List.concat_map
      (fun a -> [ base (Dc a); base ~workload:Two_phase (Dc a) ])
      [ Dc.NS; Dc.SC; Dc.SS ]
  @ [
      base (Ds Ds.GCS);
      base (Ds Ds.LCS);
      base ~workload:Two_phase (Ds Ds.LCO);
      base ~workload:Http_trace ~events:40_000 (Dc Dc.LS);
      base ~workload:Http_trace ~events:40_000 (Ds Ds.LCO);
      base ~sites:8 (Dc Dc.LS);
      base ~faults:"drop=0.05,dup=0.01" (Dc Dc.LS);
      base ~faults:"drop=0.05,dup=0.01" (Ds Ds.LCO);
      base ~workload:Http_trace ~events:40_000 (Hh Dc.LS);
      base ~workload:Http_trace ~events:40_000 (Hh Dc.NS);
      base ~events:60_000 (Window W.NS);
      base ~events:60_000 (Window W.LS);
    ]

let by_name = function
  | "small" -> Some (small ())
  | "full" -> Some (full ())
  | _ -> None
