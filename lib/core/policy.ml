module U = Util.Units

type directive = { weight : int; priority : int }

let tenant_share ~weight =
  if weight < 1 || weight > 255 then
    invalid_arg "Policy.tenant_share: weight must be in 1..255";
  { weight; priority = 0 }

let deadline_bands = 4

let required_gbps ~size_bytes ~deadline_ns =
  if size_bytes <= 0 then invalid_arg "Policy: non-positive size";
  if deadline_ns <= 0 then invalid_arg "Policy: non-positive deadline";
  U.gbps (float_of_int (8 * size_bytes) /. float_of_int deadline_ns)

let deadline ~size_bytes ~deadline_ns ~link_gbps =
  if (link_gbps : U.gbps :> float) <= 0.0 then
    invalid_arg "Policy.deadline: non-positive link rate";
  let urgency =
    (U.frac_of ~num:(required_gbps ~size_bytes ~deadline_ns) ~den:link_gbps :> float)
  in
  (* Band 0: needs more than half the link; band 3: under an eighth. *)
  let priority =
    if urgency > 0.5 then 0
    else if urgency > 0.25 then 1
    else if urgency > 0.125 then 2
    else 3
  in
  { weight = 1; priority }

let background = { weight = 1; priority = deadline_bands }

let meets_deadline ~size_bytes ~deadline_ns ~rate_gbps =
  (rate_gbps : U.gbps :> float) >= (required_gbps ~size_bytes ~deadline_ns :> float) -. 1e-9
