"""The benchmark's own integer arithmetic over Z[w], used to check outputs.

An element a + b*w (w = exp(2 pi i/3), w^2 = -1 - w) is the pair (a, b);
a vector is a tuple of pairs.  Nothing here imports the program: the
checks below replay certificates and Conway steps with this arithmetic
alone, so a defect shared by the program's rings and its own replay
cannot make a wrong output pass.
"""

from __future__ import annotations

THETA = (1, 2)  # w - w^2 = sqrt(-3)
UNIT_BY_NAME = {
    "1": (1, 0), "-1": (-1, 0), "w": (0, 1), "-w": (0, -1),
    "w2": (-1, -1), "-w2": (1, 1),
}
UNITS = tuple(UNIT_BY_NAME.values())
EPS_BY_NAME = {"w": (0, 1), "wbar": (-1, -1)}
MINUS3 = (-3, 0)


def mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def conj(x):
    return (x[0] - x[1], -x[1])


def norm(x) -> int:
    a, b = x
    return a * a - a * b + b * b


def div3(x):
    if x[0] % 3 or x[1] % 3:
        raise ValueError(f"{x} is not divisible by 3")
    return (x[0] // 3, x[1] // 3)


def ip(u, v, leech_scaled: bool):
    """The Lorentzian form of the 14-coordinate systems: minus the plain
    (3E8+H) or one-third (Leech+H) Hermitian sum on the first twelve
    coordinates, plus conj(u12)(-theta)v13 + conj(u13) theta v12."""
    s = (0, 0)
    for x, y in zip(u[:12], v[:12]):
        s = add(s, mul(conj(x), y))
    if leech_scaled:
        s = div3(s)
    neg_theta = (-THETA[0], -THETA[1])
    h = add(mul(mul(conj(u[12]), neg_theta), v[13]),
            mul(mul(conj(u[13]), THETA), v[12]))
    return (h[0] - s[0], h[1] - s[1])


def reflect(r, mu, v, leech_scaled: bool):
    """v - r (1 - mu) <r, v> / |r|^2 for a root r of norm -3."""
    q = ip(r, v, leech_scaled)
    s = div3(mul((1 - mu[0], -mu[1]), q))
    return tuple(add(x, mul(s, y)) for x, y in zip(v, r))


def scale(u, v):
    return tuple(mul(u, x) for x in v)


def canonical(v):
    """The least of the six unit multiples of v, as a tuple of pairs."""
    return min(scale(u, v) for u in UNITS)


def fmt(v) -> str:
    return " ".join(f"{a},{b}" for a, b in v)


def parse_vector(text: str):
    return tuple(tuple(int(c) for c in tok.split(",")) for tok in text.split())


def from_eis(v):
    """Pairs from a vector of the program's Eis values."""
    return tuple((int(x.a), int(x.b)) for x in v)


def replay_certificate(text: str, nodes, generators):
    """Problems found replaying one height-reduction certificate (empty if
    none): every intermediate vector must have norm -3 in 3E8+H, and the
    terminal must be the stated unit times the stated node root."""
    target, steps, terminal = None, [], None
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        fields = dict(p.split("=") for p in rest.split()) if key != "target" else {}
        if key == "target":
            target = parse_vector(rest)
        elif key == "step" and "node" in fields:
            steps.append((nodes[int(fields["node"]) - 1], fields["eps"]))
        elif key == "step":
            steps.append((generators[int(fields["perturb"]) - 1], fields["eps"]))
        elif key == "terminal":
            terminal = (int(fields["node"]) - 1, fields["unit"])
    if target is None or terminal is None:
        return ["malformed certificate"]
    problems = []
    y = target
    for i, (root, eps) in enumerate(steps, start=1):
        y = reflect(root, EPS_BY_NAME[eps], y, leech_scaled=False)
        if ip(y, y, leech_scaled=False) != MINUS3:
            problems.append(f"step {i}: norm is not -3")
    k, unit = terminal
    if y != scale(UNIT_BY_NAME[unit], nodes[k]):
        problems.append("terminal is not the stated unit times the stated node")
    return problems


def replay_conway(mu, steps, final):
    """Problems found replaying one Conway reduction in Leech+H: each
    reflecting vector is a norm -3 root, h^2 = norm of the middle
    coordinate strictly decreases, and the walk ends at h^2 = 1 on
    ``final``."""
    problems = []
    y = mu
    last = norm(y[12])
    for i, (root, eps) in enumerate(steps, start=1):
        if ip(root, root, leech_scaled=True) != MINUS3:
            problems.append(f"step {i}: reflecting vector is not a root")
        y = reflect(root, EPS_BY_NAME[eps], y, leech_scaled=True)
        h2 = norm(y[12])
        if not h2 < last:
            problems.append(f"step {i}: h^2 did not decrease")
        last = h2
    if last != 1:
        problems.append(f"ends at h^2 = {last}, not 1")
    if y != final:
        problems.append("replay does not reach the returned vector")
    return problems
