"""The benchmark's workloads: each is a fixed list of jobs.

A job is one ``skewcover`` command on one input, as a user types it, or
one capped knitting call (the CLI has no cap flag yet).
Inputs are bundled files (``src/skewcover/data``) or members of the two
generated families in ``gen.py``; a generated input's key is
``star<n>_<L>`` or ``cover<n>_<L>``.

Why each workload:

* ``presentation``: building skew presentations.  ``action``, ``quiver``,
  ``skew`` and ``isosearch`` do nearly all the work (the exhaustive
  multiplicativity check in ``validate_action`` over dense products);
  ``rep`` and ``ar`` do none, so a change to those predicts no change
  here.
* ``modules``: knitting, transport, Hom identities and pushdown over small
  representation-finite algebras.  Thousands of tiny eliminations and
  isomorphism tests; building the presentation is a small share.  One
  capped knit of the Kronecker cover (about a fifth of a pass) adds the
  larger eliminations and the isomorphism tests that fall through to the
  random fallback, so a kernel tuned for tiny matrices cannot lose on
  large ones unseen.
* ``wild``: capped knitting of representation-infinite inputs, ending in
  the expected cap refusal.  The same ``field`` and ``rep`` layers as
  ``modules``, but few and larger eliminations and isomorphism tests that
  fall through to the random fallback.  It is not in ``BENCHMARK.json``:
  its regime is gated through the capped knit in ``modules``, and two
  workloads leave room for longer, steadier runs.

Sizes are chosen so one pass takes a few seconds on a 2-core machine and a
run holds several passes; the larger members named in ``probe_unfinished``
do not finish in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

BUNDLED_ALGEBRAS = ("fig1", "fig2", "fig5", "fig6", "free_action_a3",
                    "kronecker_z3")
FIG5_MODULES = ("M_1_2", "M_2_1_2", "N_3_2", "S2")


@dataclass(frozen=True)
class Job:
    """``args`` is the CLI argument list with the input key in place of the
    file; a knitting job has ``cap`` set and ``args`` empty."""
    input: str
    args: tuple[str, ...] = ()
    cap: int | None = None

    @property
    def id(self) -> str:
        if self.cap is not None:
            return f"knit {self.input} cap={self.cap}"
        return " ".join(self.args).replace("{}", self.input)

    @property
    def generated(self) -> bool:
        return self.input.startswith(("star", "cover"))


def _cli(command: str, inputs, *extra: str) -> list[Job]:
    return [Job(i, (*command.split(), "{}", *extra)) for i in inputs]


def presentation() -> list[Job]:
    # 34 jobs.  ``skew star3_4`` and ``double-skew cover2_6`` are the two
    # slowest; the next four, ``double-skew star3_3``, ``double-skew
    # star2_4`` and ``skew`` on ``star3_3`` and ``cover3_4``, cost
    # 0.40-0.47 s each, so p90 falls among their samples: a quantile over
    # four jobs' samples spread across the run rather than the median of a
    # few samples of one job.  p50 falls inside a run of jobs of 0.08-0.15 s
    # with no gap in cost, away from the cheaper ones.
    return (_cli("skew", BUNDLED_ALGEBRAS)
            + _cli("double-skew", BUNDLED_ALGEBRAS)
            + _cli("skew", ("star3_1", "star3_2", "star3_3", "star3_4",
                            "star2_2", "star2_3", "star2_4", "cover2_3",
                            "cover2_4", "cover3_3", "cover3_4"))
            + _cli("double-skew", ("star3_1", "star3_2", "star3_3",
                                   "star2_2", "star2_3", "star2_4",
                                   "cover2_3", "cover2_4", "cover2_5",
                                   "cover2_6", "cover3_3")))


def modules() -> list[Job]:
    # 27 jobs and a pass of about 4 s, so a run holds ten or more passes.
    # ``transport-ars star3_1`` and the capped knit are the slowest jobs;
    # p90 falls among the samples of the five jobs of 0.3-0.5 s below them,
    # which take half of a pass, so it is a quantile over many samples
    # spread across the run rather than the median of a few samples of one
    # job.  Fifteen ``hom``/``check-gentle`` calls hold p50.  Kronecker
    # caps 11 to 14 all refuse at dimension 15 after the same work; 14
    # keeps the job apart from ``wild``'s cap 12.
    return ([Job("kronecker_z3", cap=14)]
            + _cli("verify-covering --all-indecomposables",
                   ("star3_1", "free_action_a3"))
            + _cli("rank", ("cover2_4", "free_action_a3"))
            + _cli("transport-ars", ("star3_1", "free_action_a3"))
            + _cli("ar-quiver", ("star2_2",))
            + [Job("fig5", ("pushdown", "{}", "--module", m))
               for m in FIG5_MODULES]
            + [Job("fig5", ("hom", "{}", m, n))
               for m in FIG5_MODULES[:3] for n in FIG5_MODULES[:3]]
            + _cli("check-gentle", ("fig5", "fig6", "free_action_a3",
                                    "a2_specialloop", "kronecker_z3",
                                    "star3_1")))


def wild() -> list[Job]:
    return [Job("kronecker_z3", cap=12), Job("kronecker_z3", cap=16),
            Job("star3_2", cap=20)]


WORKLOADS = {"presentation": presentation, "modules": modules, "wild": wild}


def generated_inputs() -> set[str]:
    return {j.input for jobs in WORKLOADS.values() for j in jobs()
            if j.generated}


def parse_key(key: str) -> tuple[str, int, int]:
    """``star3_4`` -> ("star", 3, 4)."""
    family = "star" if key.startswith("star") else "cover"
    n, length = key[len(family):].split("_")
    return family, int(n), int(length)
