"""Checkers: each takes one operation's output and the values it must
agree with, and returns the list of problems found (empty when right)."""

from __future__ import annotations


def check_regularity(reg, k: int, nu: int, nu1: int, aim: list[int]) -> list[str]:
    """reg(I(G)^[k]) of a block graph G against aim(G,k) + k (the paper's
    block-graph theorem) and the closed forms at k = 1 and k = nu."""
    if not isinstance(reg, int):
        return [f"no regularity: {reg!r}"]
    problems = []
    if reg != aim[k - 1] + k:
        problems.append(f"reg {reg} != aim + k = {aim[k - 1] + k}")
    if k == 1 and reg != nu1 + 1:
        problems.append(f"reg {reg} != nu1 + 1 = {nu1 + 1} at k = 1")
    if k == nu and reg != 2 * nu:
        problems.append(f"reg {reg} != 2 nu = {2 * nu} at k = nu")
    return problems


def check_betti_table(got, expected: dict) -> list[str]:
    """A Betti table, as [[i, j, beta], ...], against the oracle's {(i, j): beta}."""
    if not isinstance(got, list):
        return [f"no Betti table: {got!r}"]
    problems = [f"negative entry beta_{i},{j} = {b}" for i, j, b in got if b < 0]
    table = {(i, j): b for i, j, b in got if b}
    if table != {key: b for key, b in expected.items() if b}:
        problems.append(f"table {sorted(table.items())} != {sorted(expected.items())}")
    return problems


def check_aim_profile(profile, nu: int, nu1: int, aim: list[int]) -> list[str]:
    """[aim(H,1), ..., aim(H,nu)] against the reference profile and its laws:
    aim(H,1) = nu1, k <= aim(H,k) <= nu, and steps of 0 or 1."""
    if not isinstance(profile, list):
        return [f"no profile: {profile!r}"]
    problems = []
    if len(profile) != nu:
        problems.append(f"profile has {len(profile)} entries, nu = {nu}")
    if profile and profile[0] != nu1:
        problems.append(f"aim(H,1) = {profile[0]} != nu1 = {nu1}")
    for k, a in enumerate(profile, start=1):
        if not k <= a <= nu:
            problems.append(f"aim(H,{k}) = {a} outside [{k}, {nu}]")
        if k >= 2 and not profile[k - 2] <= a <= profile[k - 2] + 1:
            problems.append(f"aim(H,{k - 1}) = {profile[k - 2]} -> aim(H,{k}) = {a}")
    if profile != aim:
        problems.append(f"profile {profile} != reference {aim}")
    return problems


def check_lower_bounds(bounds, d: int, aim: list[int], brute: list[int] | None) -> list[str]:
    """[lower_bound(H,1), ..., lower_bound(H,nu)] of a d-uniform H: each
    equals (d-1) aim(H,k), and the brute-force value when one is given."""
    if not isinstance(bounds, list):
        return [f"no lower bounds: {bounds!r}"]
    problems = []
    want = [(d - 1) * a for a in aim]
    if bounds != want:
        problems.append(f"lower bounds {bounds} != (d-1) aim = {want}")
    if brute is not None and bounds != brute:
        problems.append(f"lower bounds {bounds} != brute force {brute}")
    return problems


def check_induced_matching_number(value, nu1: int) -> list[str]:
    if value != nu1:
        return [f"induced matching number {value!r} != {nu1}"]
    return []


def check_campaign_report(
    records: list[dict], expected: dict[str, tuple[int, int, list[int]]]
) -> tuple[set[tuple[str, int]], list[str]]:
    """The records of a chordal-conjecture JSONL report against the reference.

    Returns (bad, problems): bad holds the expected (instance, k) checks
    that are missing or wrong; every record must satisfy reg = aim + k,
    aim = the reference aim, reg = nu1 + 1 at k = 1 and reg = 2 nu at k = nu.
    """
    problems = []
    seen: set[tuple[str, int]] = set()
    bad: set[tuple[str, int]] = set()
    summary = None
    for rec in records:
        if "summary" in rec:
            summary = rec
            continue
        if "instance" not in rec:
            continue
        key = (rec["instance"], rec["k"])
        ref = expected.get(rec["instance"])
        if ref is None or not 1 <= rec["k"] <= ref[0] or key in seen:
            problems.append(f"unexpected record {key}")
            continue
        seen.add(key)
        nu, nu1, aim = ref
        k, reg = rec["k"], rec.get("reg")
        found = [] if rec.get("ok") is True else ["record not ok"]
        if rec.get("aim") != aim[k - 1]:
            found.append(f"aim {rec.get('aim')} != {aim[k - 1]}")
        found += check_regularity(reg, k, nu, nu1, aim)
        if found:
            bad.add(key)
            problems.append(f"{key}: {'; '.join(found)}")
    missing = {
        (name, k) for name, ref in expected.items() for k in range(1, ref[0] + 1)
    } - seen
    if missing:
        bad |= missing
        problems.append(f"{len(missing)} expected checks missing")
    want = sum(ref[0] for ref in expected.values())
    if summary is None:
        problems.append("no summary record")
    elif summary.get("instances") != len(expected) or summary.get("checks") != want:
        problems.append(
            f"summary has {summary.get('instances')} instances and "
            f"{summary.get('checks')} checks, expected {len(expected)} and {want}"
        )
    return bad, problems
