module F = Wire.Frame

type site_report = {
  frames_received : int;
  bytes_received : int;
  frames_sent : int;
  bytes_sent : int;
}

let ignore_sigpipe () =
  (* A peer that died mid-write must surface as EPIPE, not kill us. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

let rec read_exact fd buf pos len =
  if len > 0 then begin
    let n = Unix.read fd buf pos len in
    if n = 0 then raise End_of_file;
    read_exact fd buf (pos + n) (len - n)
  end

(* A frame as one buffer: header + zeroed payload the caller may poke. *)
let frame_buf ~kind ~site ~payload_len =
  let buf = Bytes.make (F.header_bytes + payload_len) '\000' in
  F.encode_header buf ~pos:0 ~kind ~site ~length:payload_len;
  buf

let write_frame fd ~kind ~site ~payload_len =
  let buf = frame_buf ~kind ~site ~payload_len in
  write_all fd buf 0 (Bytes.length buf)

(* Like [frame_buf], but a version-2 spanned frame: header with the span
   flag set, then the 40-byte span context block, then the payload.  The
   header's length field still counts only the payload. *)
let spanned_buf ~kind ~site ~payload_len ~span =
  let buf = Bytes.make (F.header_bytes + F.span_bytes + payload_len) '\000' in
  F.encode_header_spanned buf ~pos:0 ~kind ~site ~length:payload_len;
  F.encode_span buf ~pos:F.header_bytes span;
  buf

(* Read one frame: header, span context block when the header announces
   one, payload.  Consuming the span block here is what keeps the stream
   in sync whether or not the peer stamps its frames.  [spans] only adds
   a [frame.decode] histogram stamp; decoding is identical without it. *)
let read_frame ?spans fd =
  let module Span = Wd_obs.Span in
  let hdr = Bytes.create F.header_bytes in
  read_exact fd hdr 0 F.header_bytes;
  let decoded =
    match spans with
    | None -> F.decode_header hdr ~pos:0
    | Some r ->
      let t0 = Span.now r in
      let d = F.decode_header hdr ~pos:0 in
      Span.observe_ns r ~name:"frame.decode" (Int64.sub (Span.now r) t0);
      d
  in
  match decoded with
  | Error e -> Error e
  | Ok h ->
    let span =
      if not h.F.has_span then None
      else begin
        let sbuf = Bytes.create F.span_bytes in
        read_exact fd sbuf 0 F.span_bytes;
        match F.decode_span sbuf ~pos:0 with
        | Ok s -> Some s
        | Error _ -> None (* unreachable: the buffer is exactly span_bytes *)
      end
    in
    let payload = Bytes.create h.F.length in
    read_exact fd payload 0 h.F.length;
    Ok (h, span, payload)

let set_timeouts fd timeout =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout

let reject fd reason =
  let payload_len = String.length reason in
  let buf = frame_buf ~kind:F.Reject ~site:0 ~payload_len in
  Bytes.blit_string reason 0 buf F.header_bytes payload_len;
  (try write_all fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> ())

let stats_payload_len = 32

let send_stats fd ~site report =
  let buf = frame_buf ~kind:F.Stats ~site ~payload_len:stats_payload_len in
  let p i v = Bytes.set_int64_le buf (F.header_bytes + i) (Int64.of_int v) in
  p 0 report.frames_received;
  p 8 report.bytes_received;
  p 16 report.frames_sent;
  p 24 report.bytes_sent;
  write_all fd buf 0 (Bytes.length buf)

let decode_report payload =
  let g i = Int64.to_int (Bytes.get_int64_le payload i) in
  {
    frames_received = g 0;
    bytes_received = g 8;
    frames_sent = g 16;
    bytes_sent = g 24;
  }
