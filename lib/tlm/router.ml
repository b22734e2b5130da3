type entry = { lo : int; hi : int; target : Socket.target }

type t = {
  name : string;
  mutable entries : entry list; (* mapping order *)
  mutable sorted : entry array; (* address order, rebuilt by [map] *)
  mutable observer : (Payload.t -> string -> unit) option;
}

let create ~name () =
  { name; entries = []; sorted = [||]; observer = None }

let set_observer r f = r.observer <- f

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let map r ~lo ~hi target =
  if hi < lo then invalid_arg "Router.map: empty range";
  let e = { lo; hi; target } in
  (match List.find_opt (overlaps e) r.entries with
  | Some clash ->
      invalid_arg
        (Printf.sprintf "Router.map: [0x%x..0x%x] overlaps %s [0x%x..0x%x]" lo
           hi
           (Socket.target_name clash.target)
           clash.lo clash.hi)
  | None -> ());
  r.entries <- r.entries @ [ e ];
  (* Mapping is rare and construction-time; dispatch is per transaction.
     Pay for the sort here so [find] can binary-search. Ranges are
     disjoint (checked above), so ordering by [lo] orders by [hi] too. *)
  let a = Array.of_list r.entries in
  Array.sort (fun a b -> compare a.lo b.lo) a;
  r.sorted <- a

(* Index into [sorted] of the entry containing [addr], or -1. Allocation
   free: it runs on every routed transaction. *)
let find r addr =
  let a = r.sorted in
  (* Rightmost entry with [lo <= addr], then a single containment check. *)
  let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Array.unsafe_get a mid).lo <= addr then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best >= 0 && addr <= (Array.unsafe_get a !best).hi then !best else -1

let resolve r addr =
  match find r addr with
  | -1 -> None
  | i ->
      let e = r.sorted.(i) in
      Some (e.target, addr - e.lo)

let route r payload delay =
  match find r payload.Payload.addr with
  | -1 ->
      payload.Payload.resp <- Payload.Address_error;
      delay
  | i ->
      let e = Array.unsafe_get r.sorted i in
      let global = payload.Payload.addr in
      payload.Payload.addr <- global - e.lo;
      let delay = Socket.call e.target payload delay in
      payload.Payload.addr <- global;
      (match r.observer with
      | Some f -> f payload (Socket.target_name e.target)
      | None -> ());
      delay

let target_socket r = Socket.target ~name:r.name (route r)

let mappings r =
  List.map (fun e -> (e.lo, e.hi, Socket.target_name e.target)) r.entries
