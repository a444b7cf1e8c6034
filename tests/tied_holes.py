"""``scrollex p2`` on inputs whose shortest holes all tie, under a memory and a
time bound.

    python tests/tied_holes.py [bipartite N | diamonds K]

``bipartite N`` is K_{N,N}: N^2 (N - 1)^2 / 4 tied 4-holes, p2 = 1.
``diamonds K`` is a chain of K diamonds a_{i-1} b_i c_i a_i, with b_i c_i an
edge, closed by the path a_K p q a_0: 2^K tied holes of length 2K + 3, so
p2 = 2K.  The default is ``bipartite 46``.

The script writes the bare instance to a temporary file, runs ``scrollex
p2`` on it in a child process (the checkout's ``src`` prepended to its
``PYTHONPATH``, so no install is needed), and reads the child's peak RSS from
``resource.getrusage(RUSAGE_CHILDREN)``.  It prints the exit code, the
"exact" value, the wall time and the peak RSS, and exits 1 unless the child
exits 0 with the closed-form "exact" value under 64 MB and within 5 s.
The walk behind "exact" stops at its first shortest hole, so
``bipartite 46`` takes about 0.1 s on a 2-vCPU box; a walk that went on
to every tied hole took over 10 s there.  All work runs under
``__main__``, since ``--doctest-modules`` imports every file under
``tests/``.
"""

import sys

MAX_RSS_MB = 64
MAX_WALL_S = 5


def bipartite(n):
    """K_{n,n} as an instance document, with its p2."""
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    return {"vertices": a + b, "edges": [[u, w] for u in a for w in b], "extensions": []}, 1


def diamonds(k):
    """The closed chain of k diamonds as an instance document, with its p2."""
    a = [f"a{i}" for i in range(k + 1)]
    edges = [[a[k], "p"], ["p", "q"], ["q", a[0]]]
    for i in range(1, k + 1):
        b, c = f"b{i}", f"c{i}"
        edges += [[a[i - 1], b], [a[i - 1], c], [b, c], [b, a[i]], [c, a[i]]]
    vertices = a + [f"{x}{i}" for i in range(1, k + 1) for x in "bc"] + ["p", "q"]
    return {"vertices": vertices, "edges": edges, "extensions": []}, 2 * k


def main(argv):
    import json
    import os
    import resource
    import subprocess
    import tempfile
    import time

    family, size = argv if argv else ("bipartite", "46")
    doc, p2 = {"bipartite": bipartite, "diamonds": diamonds}[family](int(size))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "scrollex.cli", "p2", path], capture_output=True, text=True, env=env
        )
        wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    exact = json.loads(run.stdout)["exact"] if run.returncode == 0 else None
    print(
        f"{family} {size}: exit {run.returncode}, exact {exact} (closed form {p2}), "
        f"{wall:.1f} s (bound {MAX_WALL_S} s), peak RSS {rss_mb:.0f} MB (bound {MAX_RSS_MB} MB)"
    )
    sys.stderr.write(run.stderr)
    ok = run.returncode == 0 and exact == p2 and wall < MAX_WALL_S and rss_mb < MAX_RSS_MB
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
