type t = { fd : Unix.file_descr }

let connect ?(retry_for_s = 0.0) path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Monotonic: a wall-clock step mid-retry must not stretch or collapse
     the retry window. *)
  let deadline = Nomap_util.Clock.now_s () +. retry_for_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Nomap_util.Clock.now_s () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      go ()
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go ()

let rpc t req =
  Protocol.write_frame t.fd (Protocol.encode_request req);
  match Protocol.read_frame t.fd with
  | Protocol.Eof -> failwith "nomapd client: connection closed before response"
  | Protocol.Oversized n -> failwith (Printf.sprintf "nomapd client: oversized response (%d bytes)" n)
  | Protocol.Frame payload -> (
    match Protocol.decode_response payload with
    | Ok resp -> resp
    | Result.Error msg -> failwith ("nomapd client: bad response: " ^ msg))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
