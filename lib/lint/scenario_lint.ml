let nondeterministic_build =
  { Diag.code = "QS301"; slug = "nondeterministic-build";
    severity = Diag.Error;
    doc = "two Scenario.build calls with equal seeds produced different \
           fingerprints";
    explain =
      "Equal seeds must give bit-identical scenarios: reproducibility is \
       the contract that makes every number in EXPERIMENTS.md re-derivable \
       and every differential suite meaningful. If two builds from one \
       seed fingerprint differently, some construction step consumed \
       nondeterministic state — an unseeded RNG, hash-table iteration \
       order, wall-clock time — and must be found before any result is \
       trusted." }

let dead_collector_peer =
  { Diag.code = "QS302"; slug = "dead-collector-peer";
    severity = Diag.Error;
    doc = "a collector session's peer AS is not in the topology";
    explain =
      "A collector session records the routes its peer AS selects, so a \
       peer that does not exist in the topology can never feed it an \
       update: the session is a permanently silent vantage point. Every \
       visibility number computed over the collector set would silently \
       undercount, which is exactly the bias the paper warns about when \
       comparing control-plane monitors." }

let collector_peer_ip =
  { Diag.code = "QS303"; slug = "collector-peer-ip";
    severity = Diag.Warn;
    doc = "a collector session's peer IP is outside the peer AS's address \
           space";
    explain =
      "Real RIS sessions are identified by the peer's source address, and \
       downstream tooling joins updates to ASes through that address. A \
       session sourcing from an address the plan assigns to a different \
       AS still collects updates (hence only a warning), but any analysis \
       that maps sessions back to ASes via addressing will attribute its \
       feed to the wrong AS." }

let parallel_fingerprint_divergence =
  { Diag.code = "QS305"; slug = "parallel-fingerprint-divergence";
    severity = Diag.Error;
    doc = "Scenario.fingerprint disagrees between a jobs=1 and a jobs=2 \
           executor pool";
    explain =
      "Determinism must not depend on the worker count: the executor \
       hands out chunks in a fixed order and merges results positionally, \
       so the same scenario digested on one worker and on two must hash \
       identically. A divergence means some task communicates through \
       shared mutable state (a workspace used off-domain, an accumulator \
       merged in completion order), which is a portability bug for every \
       machine with a different core count." }

let rules =
  [ nondeterministic_build; dead_collector_peer; collector_peer_ip;
    parallel_fingerprint_divergence ]

let check_collectors g addressing collectors =
  collectors
  |> List.concat_map (fun (c : Collector.t) ->
      c.Collector.sessions
      |> List.concat_map (fun (s : Collector.session) ->
          let peer = s.Collector.id.Update.peer in
          let ctx =
            [ ("collector", c.Collector.name); ("peer", Asn.to_string peer);
              ("peer_ip", Ipv4.to_string s.Collector.peer_ip) ]
          in
          let liveness =
            if As_graph.mem_as g peer then []
            else
              [ Diag.msgf dead_collector_peer ~context:ctx
                  "%s session peers with %a, which is not in the topology"
                  c.Collector.name Asn.pp peer ]
          in
          let ip =
            match Addressing.covering_prefix addressing s.Collector.peer_ip with
            | Some (_, owner) when Asn.equal owner peer -> []
            | Some (p, owner) ->
                [ Diag.msgf collector_peer_ip
                    ~context:
                      (("covering", Prefix.to_string p)
                       :: ("owner", Asn.to_string owner) :: ctx)
                    "%s session with %a sources from %a, inside %a's prefix"
                    c.Collector.name Asn.pp peer Ipv4.pp s.Collector.peer_ip
                    Asn.pp owner ]
            | None ->
                [ Diag.msgf collector_peer_ip ~context:ctx
                    "%s session with %a sources from unrouted address %a"
                    c.Collector.name Asn.pp peer Ipv4.pp s.Collector.peer_ip ]
          in
          liveness @ ip))

let check_parallel_fingerprint ?fingerprint (s : Scenario.t) =
  let fingerprint =
    match fingerprint with
    | Some f -> f
    | None -> fun ~exec -> Scenario.fingerprint ~exec s
  in
  let sequential = Pool.with_pool ~jobs:1 (fun exec -> fingerprint ~exec) in
  let parallel = Pool.with_pool ~jobs:2 (fun exec -> fingerprint ~exec) in
  if String.equal sequential parallel then []
  else
    [ Diag.msgf parallel_fingerprint_divergence
        ~context:
          [ ("seed", string_of_int s.Scenario.seed);
            ("jobs1", sequential); ("jobs2", parallel) ]
        "fingerprint of seed %d differs between jobs=1 (%s) and jobs=2 (%s)"
        s.Scenario.seed sequential parallel ]

let check_determinism (s : Scenario.t) =
  let rebuilt = Scenario.build ~seed:s.Scenario.seed s.Scenario.size in
  let fp = Scenario.fingerprint s and fp' = Scenario.fingerprint rebuilt in
  if String.equal fp fp' then []
  else
    [ Diag.msgf nondeterministic_build
        ~context:
          [ ("seed", string_of_int s.Scenario.seed); ("first", fp);
            ("second", fp') ]
        "seed %d built two different scenarios (%s vs %s)" s.Scenario.seed fp
        fp' ]
