let sweep_entry_invalid =
  { Diag.code = "QS308"; slug = "sweep-entry-invalid";
    severity = Diag.Error;
    doc = "a sweep registry entry cannot expand into a non-empty, \
           collision-free matrix of cells";
    explain =
      "A sweep registry entry is typed OCaml data: its variables and every \
       axis value are values of their own types, so a misspelled key or an \
       unknown churn model does not compile. What types cannot rule out is \
       what `quicksand sweep` trusts about the expanded matrix: that it has \
       cells and that each is a distinct run. An empty axis makes the \
       cartesian product empty, so the sweep silently runs nothing; two \
       cells whose canonical bindings collapse onto one identity (a value \
       listed twice on an axis, or one key on two axes, where the later \
       axis overwrites the earlier) would run one cell twice and present \
       it as two results — the scenario fingerprint digests exactly these \
       bindings, so duplicate identities mean byte-identical results \
       directories masquerading as distinct measurements; and two entries \
       with one name make `--matrix NAME` silently pick the first. Typical \
       causes: copying an entry without renaming it, or extending an axis \
       with a value it already lists." }

let rules = [ sweep_entry_invalid ]

let check ?(registry = Sweep.builtin) () =
  Sweep.validate_registry registry
  |> List.map (fun (i : Sweep.invalid) ->
      Diag.make sweep_entry_invalid
        ~context:
          (("entry", i.Sweep.entry)
           :: ("problem", i.Sweep.problem)
           :: i.Sweep.detail)
        i.Sweep.message)
