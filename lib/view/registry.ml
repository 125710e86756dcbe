module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module W = Wd_protocol.Window_tracker
module Tracker_intf = Wd_protocol.Tracker_intf
module Hh = Wd_aggregate.Distinct_hh.Tracked
module Yzh = Wd_protocol.Yz_hh_tracker
module Yzq = Wd_aggregate.Yz_quantile_tracker
module Transport = Wd_net.Transport
module Sink = Wd_obs.Sink
module Rng = Wd_hashing.Rng

(* Applicative functor application keeps [Dc_fm.t] path-equal to
   [Dc_tracker.Fm.t], so callers holding the standard instantiations can
   exchange trackers with the registry. *)
module Dc_fm = Dc.Fm
module Dc_bjkst = Dc.Make (Wd_sketch.Bjkst)
module Dc_hll = Dc.Make (Wd_sketch.Hyperloglog)
module Dc_fmc = Dc.Make (Wd_sketch.Fm_concentrated)
module Dc_fanout = Dc.Make (Fanout_sketch)

(* {!W} through the TRACKER surface: the adapter supplies the shared
   clock (the view's arrival index) that window trackers need and plain
   trackers don't carry. *)
module Window_view = struct
  type t = { w : W.t; mutable updates : int }

  let kind = "window"
  let algorithm_name t = W.algorithm_to_string (W.algorithm_of t.w)
  let sites _ = 1

  let observe t ~site v =
    W.observe t.w ~site ~time:t.updates v;
    t.updates <- t.updates + 1

  let observe_batch t ~sites ~items ~pos ~len =
    if Array.length sites <> Array.length items then
      invalid_arg "Window_view.observe_batch: sites/items length mismatch";
    if pos < 0 || len < 0 || pos + len > Array.length items then
      invalid_arg "Window_view.observe_batch: slice out of range";
    for j = pos to pos + len - 1 do
      observe t ~site:(Array.unsafe_get sites j) (Array.unsafe_get items j)
    done

  let estimate t = W.estimate t.w ~now:(max 0 (t.updates - 1))

  let site_send_threshold _ ~site:_ ~item:_ =
    invalid_arg "Window_view: window trackers expose no send threshold"

  let updates t = t.updates
  let sends t = W.sends t.w
  let lost_updates _ = 0
  let site_down_for _ _ = 0
  let set_sink _ _ = ()
  let network t = W.network t.w

  let transport _ =
    invalid_arg "Window_view: window trackers have no transport"
end

(* {!Hh} through the TRACKER surface: arrivals are {!Query.pack_pair}ed
   [(v, w)] keys; the scalar estimate is the current top degree. *)
module Hh_view = struct
  type t = { h : Hh.t; algorithm : Dc.algorithm; mutable updates : int }

  let kind = "hh"
  let algorithm_name t = Dc.algorithm_to_string t.algorithm
  let sites _ = 1

  let observe t ~site packed =
    Hh.observe t.h ~site ~v:(Query.unpack_v packed)
      ~w:(Query.unpack_w packed);
    t.updates <- t.updates + 1

  let observe_batch t ~sites ~items ~pos ~len =
    if Array.length sites <> Array.length items then
      invalid_arg "Hh_view.observe_batch: sites/items length mismatch";
    if pos < 0 || len < 0 || pos + len > Array.length items then
      invalid_arg "Hh_view.observe_batch: slice out of range";
    for j = pos to pos + len - 1 do
      observe t ~site:(Array.unsafe_get sites j) (Array.unsafe_get items j)
    done

  let estimate t = match Hh.top t.h ~k:1 with [] -> 0.0 | (_, d) :: _ -> d

  let site_send_threshold _ ~site:_ ~item:_ =
    invalid_arg "Hh_view: per-cell thresholds are not exposed"

  let updates t = t.updates
  let sends t = Hh.sends t.h
  let lost_updates _ = 0
  let site_down_for _ _ = 0
  let set_sink t sink = Hh.set_sink t.h sink
  let network t = Hh.network t.h
  let transport t = Hh.transport t.h
end

type backing =
  | B_dc_fm of Dc_fm.t
  | B_dc_bjkst of Dc_bjkst.t
  | B_dc_hll of Dc_hll.t
  | B_dc_fmc of Dc_fmc.t
  | B_dc_fanout of Dc_fanout.t
  | B_ds of Ds.t
  | B_hh of Hh_view.t
  | B_window of Window_view.t
  | B_yzhh of Yzh.t
  | B_yzq of Yzq.t

type view = {
  query : Query.t;
  vlabel : string;
  tracker : Tracker_intf.packed;
  backing : backing;
  accept : site:int -> int -> bool;
  rebase : int;
}

(* Fan-out routing plan.  [Scan] views are offered every arrival through
   their accept test; key-class views sharing a modulus are grouped into
   one residue-indexed dispatch table, so a thousand same-modulus views
   cost one [mod] per arrival, not a thousand accept calls. *)
type route =
  | Scan of view
  | Key_classes of { modulus : int; buckets : view array array }

type t = {
  view_arr : view array;
  routes : route array;
  nsites : int;
  plane : Fanout_sketch.plane option;
  mutable fed : int;
  mutable closed : bool;
}

let compile_selector ~sites sel =
  match sel with
  | Query.All -> ((fun ~site:_ _ -> true), 0, sites)
  | Query.Sites { first; count } ->
    if first < 0 || count < 1 || first + count > sites then
      invalid_arg
        (Printf.sprintf
           "Wd_view.Registry: sites=%d-%d outside the %d-site stream" first
           (first + count - 1) sites);
    let limit = first + count in
    ((fun ~site _ -> site >= first && site < limit), first, count)
  | Query.Key_mod { modulus; residue } ->
    if modulus < 1 || residue < 0 || residue >= modulus then
      invalid_arg
        (Printf.sprintf "Wd_view.Registry: mod=%d/%d is not a valid key class"
           modulus residue);
    ( (fun ~site:_ item ->
        let r = item mod modulus in
        (if r < 0 then r + modulus else r) = residue),
      0,
      sites )

let mle = Wd_sketch.Sketch_intf.Mle

(* Construct one view's tracker.  The primary routes the caller's
   transport/sink; satellites get fresh simulator transports so their
   traffic is ledgered independently. *)
let compile ~cost_model ~item_batching ~plane ~default_window ~seed ~sites
    ~transport ~sink index (q : Query.t) =
  let vseed = Option.value q.Query.seed ~default:(seed + index) in
  let rng = Rng.create vseed in
  let primary = index = 0 in
  let transport = if primary then transport else None in
  let sink = if primary then sink else Sink.null in
  let accept, rebase, vsites = compile_selector ~sites q.Query.selector in
  let backing =
    match q.Query.protocol with
    | Query.Dc algorithm ->
      let theta =
        (* EC ignores theta but the constructor validates it. *)
        if algorithm = Dc.EC then Float.max q.Query.theta 0.1
        else q.Query.theta
      in
      let alpha = q.Query.alpha and confidence = q.Query.confidence in
      (* Estimator choice is family state; Classic is every family's
         default, so it is applied only when the query deviates. *)
      (match q.Query.sketch with
      | Query.Fm ->
        let family = Wd_sketch.Fm.family ~rng ~accuracy:alpha ~confidence in
        let family =
          if q.Query.estimator = mle then Wd_sketch.Fm.with_estimator mle family
          else family
        in
        B_dc_fm
          (Dc_fm.create ~cost_model ?transport ~item_batching ~sink
             ~algorithm ~theta ~sites:vsites ~family ())
      | Query.Bjkst ->
        let family = Wd_sketch.Bjkst.family ~rng ~accuracy:alpha ~confidence in
        let family =
          if q.Query.estimator = mle then
            Wd_sketch.Bjkst.with_estimator mle family
          else family
        in
        B_dc_bjkst
          (Dc_bjkst.create ~cost_model ?transport ~item_batching ~sink
             ~algorithm ~theta ~sites:vsites ~family ())
      | Query.Hll ->
        let family =
          Wd_sketch.Hyperloglog.family ~rng ~accuracy:alpha ~confidence
        in
        let family =
          if q.Query.estimator = mle then
            Wd_sketch.Hyperloglog.with_estimator mle family
          else family
        in
        B_dc_hll
          (Dc_hll.create ~cost_model ?transport ~item_batching ~sink
             ~algorithm ~theta ~sites:vsites ~family ())
      | Query.Fmc ->
        let family =
          Wd_sketch.Fm_concentrated.family ~rng ~accuracy:alpha ~confidence
        in
        let family =
          if q.Query.estimator = mle then
            Wd_sketch.Fm_concentrated.with_estimator mle family
          else family
        in
        B_dc_fmc
          (Dc_fmc.create ~cost_model ?transport ~item_batching ~sink
             ~algorithm ~theta ~sites:vsites ~family ())
      | Query.Fanout ->
        let family =
          Fanout_sketch.family_on ~plane:(Lazy.force plane) ~accuracy:alpha
            ~confidence
        in
        let family =
          if q.Query.estimator = mle then
            Fanout_sketch.with_estimator mle family
          else family
        in
        B_dc_fanout
          (Dc_fanout.create ~cost_model ?transport ~item_batching ~sink
             ~algorithm ~theta ~sites:vsites ~family ()))
    | Query.Ds algorithm ->
      let theta =
        if algorithm = Ds.EDS then Float.max q.Query.theta 0.1
        else q.Query.theta
      in
      let family =
        Wd_sketch.Distinct_sampler.family ~rng ~threshold:q.Query.threshold
      in
      B_ds
        (Ds.create ~cost_model ?transport ~sink ~algorithm
           ~theta ~sites:vsites ~family ())
    | Query.Hh algorithm ->
      let family = Wd_aggregate.Fm_array.family ~rng q.Query.hh_config in
      let h =
        Hh.create ~cost_model ?transport ~item_batching ~algorithm
          ~theta:q.Query.theta ~sites:vsites ~family ()
      in
      if sink != Sink.null then Hh.set_sink h sink;
      B_hh { Hh_view.h; algorithm; updates = 0 }
    | Query.Yz_hh ->
      B_yzhh
        (Yzh.create ~cost_model ?transport ~sink ~epsilon:q.Query.alpha
           ~top_k:q.Query.topk ~sites:vsites ())
    | Query.Yz_q ->
      B_yzq
        (Yzq.create ~cost_model ?transport ~sink ~universe:q.Query.universe
           ~rng ~epsilon:q.Query.alpha ~sites:vsites ())
    | Query.Window algorithm ->
      let window =
        if q.Query.window > 0 then q.Query.window
        else
          match default_window with
          | Some w -> w
          | None ->
            invalid_arg
              "Wd_view.Registry: window query with window=0 needs \
               ~default_window"
      in
      let family =
        Wd_sketch.Fm_window.family ~rng ~accuracy:q.Query.alpha
          ~confidence:q.Query.confidence
      in
      B_window
        {
          Window_view.w =
            W.create ~cost_model ~algorithm ~theta:q.Query.theta ~window
              ~sites:vsites ~family ();
          updates = 0;
        }
  in
  let tracker =
    match backing with
    | B_dc_fm tr -> Dc_fm.generic tr
    | B_dc_bjkst tr -> Dc_bjkst.generic tr
    | B_dc_hll tr -> Dc_hll.generic tr
    | B_dc_fmc tr -> Dc_fmc.generic tr
    | B_dc_fanout tr -> Dc_fanout.generic tr
    | B_ds tr -> Ds.generic tr
    | B_hh hv -> Tracker_intf.Tracker ((module Hh_view), hv)
    | B_window wv -> Tracker_intf.Tracker ((module Window_view), wv)
    | B_yzhh tr -> Yzh.generic tr
    | B_yzq tr -> Yzq.generic tr
  in
  { query = q; vlabel = Query.label q; tracker; backing; accept; rebase }

(* Group same-modulus key-class views into residue dispatch tables.  A
   modulus is worth a table when it covers at least two views (a lone
   key-class view is cheaper as a scan) and the bucket array stays small
   relative to practical view counts. *)
let max_bucket_modulus = 1 lsl 22

let build_routes view_arr =
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun v ->
      match v.query.Query.selector with
      | Query.Key_mod { modulus; _ } ->
        Hashtbl.replace counts modulus
          (1 + Option.value (Hashtbl.find_opt counts modulus) ~default:0)
      | _ -> ())
    view_arr;
  let grouped m =
    m <= max_bucket_modulus
    && match Hashtbl.find_opt counts m with Some n -> n > 1 | None -> false
  in
  let buckets = Hashtbl.create 4 in
  let routes = ref [] in
  Array.iter
    (fun v ->
      match v.query.Query.selector with
      | Query.Key_mod { modulus; residue } when grouped modulus ->
        let b =
          match Hashtbl.find_opt buckets modulus with
          | Some b -> b
          | None ->
            let b = Array.make modulus [] in
            Hashtbl.replace buckets modulus b;
            routes := `Group modulus :: !routes;
            b
        in
        b.(residue) <- v :: b.(residue)
      | _ -> routes := `Scan v :: !routes)
    view_arr;
  List.rev !routes
  |> List.map (function
       | `Scan v -> Scan v
       | `Group m ->
         let b = Hashtbl.find buckets m in
         Key_classes
           {
             modulus = m;
             buckets = Array.map (fun l -> Array.of_list (List.rev l)) b;
           })
  |> Array.of_list

let create ?(cost_model = Wd_net.Network.Unicast) ?transport
    ?(item_batching = true) ?(sink = Sink.null) ?plane_capacity
    ?default_window ~seed ~sites queries =
  if queries = [] then invalid_arg "Wd_view.Registry.create: no queries";
  if sites < 1 then invalid_arg "Wd_view.Registry.create: sites must be >= 1";
  (match (transport, queries) with
  | Some _, q :: _
    when (match q.Query.protocol with Query.Window _ -> true | _ -> false) ->
    invalid_arg
      "Wd_view.Registry.create: window trackers have no transport"
  | _ -> ());
  (* One shared hash plane for every fanout view, seeded independently of
     any view's family so adding views never perturbs the hash. *)
  let plane =
    lazy (Fanout_sketch.plane ?capacity:plane_capacity ~rng:(Rng.create seed) ())
  in
  let view_arr =
    Array.of_list queries
    |> Array.mapi
         (compile ~cost_model ~item_batching ~plane ~default_window ~seed
            ~sites ~transport ~sink)
  in
  let plane = if Lazy.is_val plane then Some (Lazy.force plane) else None in
  {
    view_arr;
    routes = build_routes view_arr;
    nsites = sites;
    plane;
    fed = 0;
    closed = false;
  }

let views t = Array.length t.view_arr
let sites t = t.nsites
let query t i = t.view_arr.(i).query
let label t i = t.view_arr.(i).vlabel
let view_tracker t i = t.view_arr.(i).tracker
let estimate t i = Tracker_intf.estimate t.view_arr.(i).tracker
let routed t i = Tracker_intf.updates t.view_arr.(i).tracker

let plane_words t =
  match t.plane with None -> 0 | Some p -> Fanout_sketch.plane_words p

let ds_tracker t i =
  match t.view_arr.(i).backing with B_ds tr -> Some tr | _ -> None

let hh_tracker t i =
  match t.view_arr.(i).backing with
  | B_hh hv -> Some hv.Hh_view.h
  | _ -> None

let window_tracker t i =
  match t.view_arr.(i).backing with
  | B_window wv -> Some wv.Window_view.w
  | _ -> None

let yzhh_tracker t i =
  match t.view_arr.(i).backing with B_yzhh tr -> Some tr | _ -> None

let yzq_tracker t i =
  match t.view_arr.(i).backing with B_yzq tr -> Some tr | _ -> None

(* The fan-out TRACKER: offer each arrival to every accepting view,
   item-major so consecutive fanout adds hit the plane's hash memo.
   Ledger-style accessors proxy the primary, whose transport and sink
   are the caller's. *)
module Fan = struct
  type nonrec t = t

  let kind = "view"

  let primary t = t.view_arr.(0).tracker
  let algorithm_name t = Tracker_intf.algorithm_name (primary t)
  let sites t = t.nsites

  let observe t ~site item =
    let rs = t.routes in
    for i = 0 to Array.length rs - 1 do
      match Array.unsafe_get rs i with
      | Scan v ->
        if v.accept ~site item then
          Tracker_intf.observe v.tracker ~site:(site - v.rebase) item
      | Key_classes { modulus; buckets } ->
        let r = item mod modulus in
        let r = if r < 0 then r + modulus else r in
        let vs = Array.unsafe_get buckets r in
        (* Key-class views keep the full site range (rebase 0). *)
        for k = 0 to Array.length vs - 1 do
          Tracker_intf.observe (Array.unsafe_get vs k).tracker ~site item
        done
    done;
    t.fed <- t.fed + 1

  let observe_batch t ~sites ~items ~pos ~len =
    if Array.length sites <> Array.length items then
      invalid_arg "Wd_view.Registry: sites/items length mismatch";
    if pos < 0 || len < 0 || pos + len > Array.length items then
      invalid_arg "Wd_view.Registry: slice out of range";
    for j = pos to pos + len - 1 do
      observe t
        ~site:(Array.unsafe_get sites j)
        (Array.unsafe_get items j)
    done

  let estimate t = Tracker_intf.estimate (primary t)

  let site_send_threshold t ~site ~item =
    Tracker_intf.site_send_threshold (primary t) ~site ~item

  let updates t = t.fed
  let sends t = Tracker_intf.sends (primary t)
  let lost_updates t = Tracker_intf.lost_updates (primary t)
  let site_down_for t s = Tracker_intf.site_down_for (primary t) s
  let set_sink t sink = Tracker_intf.set_sink (primary t) sink
  let network t = Tracker_intf.network (primary t)
  let transport t = Tracker_intf.transport (primary t)
end

let packed t =
  (* One whole-stream view is its tracker: drivers keep the tracker's
     own batched observe path, byte accounting and trace identity. *)
  if Array.length t.view_arr = 1 && t.view_arr.(0).query.Query.selector = All
  then t.view_arr.(0).tracker
  else Tracker_intf.Tracker ((module Fan), t)

let close_view v =
  match v.backing with
  | B_window _ -> ()
  | _ -> Transport.close (Tracker_intf.transport v.tracker)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter close_view t.view_arr
  end
