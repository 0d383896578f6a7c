"""The benchmark's workloads: the worlds they generate, their set-up and operations.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, because a trust query's caller waits for
the answer.  Inputs come from ``simulate.generate`` (splitmix64), untimed;
the engine only receives the generated log and profiles.  Each workload
serves one world, generated at ``DEFAULT_SEED`` unless another world seed
is given, and the run's seed draws the queries: the cost of an operation
depends on the world's graph far more than on the queries drawn from it, so
a world per seed would measure the generator, not the engine.  ``refresh``
replays the same epochs at every seed (the seed draws its probe queries)
and receives each epoch as a JSON-lines file, written before anything is
timed.  All engine calls go through the defining module's attribute
(``core.build_environment``, ``composite.evaluate`` ...) so that a traced
run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from trustnet import composite, core, persist, reputation
from trustnet.core import Interaction, TrustConfig
from trustnet.simulate import (
    GenParams,
    RatingModel,
    SplitMix64,
    agent_name,
    category_name,
    generate,
)

HORIZON = 100.0
DEFAULT_SEED = 2026
HELD_OUT_SEED = 7919  # seed and world seed kept for re-checking claims

# Independent splitmix64 streams derived from the run's seed.
QUERY_STREAM = 0x51A7E0
PROBE_STREAM = 0x9B0BE5
CORPUS_STREAM = 0xC0C0A

# refresh: interactions before BACKLOG_END form the set-up, then one epoch
# per EPOCH_LENGTH time units up to the horizon.
BACKLOG_END = 50.0
EPOCH_LENGTH = 5.0
EPOCHS = int((HORIZON - BACKLOG_END) / EPOCH_LENGTH)


@dataclass(frozen=True)
class Spec:
    name: str
    n_agents: int
    n_interactions: int
    n_categories: int
    newcomer_fraction: float
    config: TrustConfig
    logged_pairs: bool  # queries ask about pairs that interacted
    warmup_ops: int
    corpus_size: int
    corpus_sample: int

    def params(self, seed: int, n_agents: Optional[int] = None) -> GenParams:
        """Generator parameters; a smaller ``n_agents`` keeps interactions per agent."""
        n = n_agents or self.n_agents
        return GenParams(
            seed=seed,
            n_agents=n,
            n_categories=self.n_categories,
            n_interactions=self.n_interactions * n // self.n_agents,
            rating_model=RatingModel.PER_AGENT_QUALITY,
            time_horizon=HORIZON,
            newcomer_fraction=self.newcomer_fraction,
        )

    def queries(
        self, seed: int, stream: int, log: list[Interaction], n_agents: Optional[int] = None
    ) -> "QueryStream":
        return QueryStream(self.params(seed, n_agents), stream, log if self.logged_pairs else None)


SPECS = {
    # Unbounded search on a sparse graph: find_paths is >= 97% of evaluate.
    "query-explore": Spec(
        name="query-explore", n_agents=2000, n_interactions=20000, n_categories=2,
        newcomer_fraction=0.05, config=TrustConfig(), logged_pairs=False,
        warmup_ops=3, corpus_size=60, corpus_sample=2,
    ),
    # Dense history, capped search: the four whole-log scans weigh most.
    "query-history": Spec(
        name="query-history", n_agents=300, n_interactions=60000, n_categories=4,
        newcomer_fraction=0.0, config=TrustConfig(search_steps=16), logged_pairs=True,
        warmup_ops=50, corpus_size=100, corpus_sample=10,
    ),
    # Write side: rebuild, reputation and snapshot save/load per epoch.
    "refresh": Spec(
        name="refresh", n_agents=1000, n_interactions=10000, n_categories=2,
        newcomer_fraction=0.05, config=TrustConfig(), logged_pairs=False,
        warmup_ops=1, corpus_size=40, corpus_sample=3,
    ),
}


@dataclass(frozen=True)
class Query:
    trustor: str
    trustee: str
    category: str


class QueryStream:
    """Seeded, unbounded sequence of queries, kept so that a run can replay it.

    With a ``log`` each query repeats a logged (trustor, trustee, category);
    otherwise it pairs a random active trustor with a random other agent,
    newcomers included, on a random category.
    """

    def __init__(self, params: GenParams, stream: int, log: Optional[list[Interaction]]):
        self._rng = SplitMix64(params.seed ^ stream)
        self._agents = [agent_name(i, params.n_agents) for i in range(params.n_agents)]
        # generate() makes the last floor(fraction * n) agents newcomers.
        self._active = params.n_agents - int(params.newcomer_fraction * params.n_agents)
        self._categories = [category_name(i) for i in range(params.n_categories)]
        self._log = log
        self._drawn: list[Query] = []

    def __getitem__(self, index: int) -> Query:
        while len(self._drawn) <= index:
            self._drawn.append(self._draw())
        return self._drawn[index]

    def _draw(self) -> Query:
        rng = self._rng
        if self._log is not None:
            r = self._log[rng.below(len(self._log))]
            return Query(r.trustor, r.trustee, r.category)
        i = rng.below(self._active)
        j = rng.below(len(self._agents) - 1)
        if j >= i:
            j += 1
        category = self._categories[rng.below(len(self._categories))]
        return Query(self._agents[i], self._agents[j], category)


def report_problem(env: core.Environment, q: Query, report) -> Optional[str]:
    """Bounds every report must satisfy, and direct trust against the snapshot.

    ``alpha + beta <= 1`` allows 1e-12 for rounding in ``alpha + (1 - alpha)``.
    """
    alpha, beta = report.alpha, report.beta
    if not (alpha >= 0.0 and beta >= 0.0 and alpha + beta <= 1.0 + 1e-12):
        return f"weights out of range: alpha={report.alpha!r} beta={report.beta!r}"
    if not 0.0 <= report.trust <= 1.0:
        return f"trust {report.trust!r} outside [0, 1]"
    if report.diagnostics["direct_source"] == "same_category":
        edge = env.edges.get((q.trustor, q.trustee))
        if edge is None or q.category not in edge.per_category:
            return "same-category direct trust without a matching edge"
        expected = edge.per_category[q.category].decayed_trust
        if abs(report.direct - expected) > 1e-12:
            return f"direct {report.direct!r} != edge decayed_trust {expected!r}"
    return None


class Workload:
    """One workload's generated inputs and the engine state its operations use."""

    def __init__(self, spec: Spec, seed: int, work: Path):
        self.spec = spec
        self.work = work
        self.snapshot_path = work / "world.snap"
        self.log: list[Interaction] = []
        self.env: Optional[core.Environment] = None
        self.model: Optional[reputation.ReputationModel] = None
        self.make_log = list

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op: int):
        raise NotImplementedError

    def check(self, op: int, result) -> Optional[str]:
        raise NotImplementedError

    def should_stop(self, ops: int, busy: float, seconds: float) -> bool:
        return busy >= seconds

    def final_checks(self) -> list[tuple[str, Optional[str]]]:
        """Checks made once after the loop: (label, problem or None) each."""
        return []

    def release(self) -> None:
        self.log, self.env, self.model = [], None, None


class QueryWorkload(Workload):
    """Set-up builds the snapshot and one reputation model from the generated
    log; each operation is one ``evaluate`` that reuses the model."""

    def __init__(self, spec: Spec, seed: int, work: Path, world_seed: int = DEFAULT_SEED):
        super().__init__(spec, seed, work)
        self.profiles, self.generated = generate(spec.params(world_seed))
        self.queries = spec.queries(seed, QUERY_STREAM, self.generated)

    def setup(self) -> None:
        self.release()
        self.env = core.build_environment(
            self.generated, HORIZON, self.spec.config.decay_rate, self.profiles
        )
        self.model = reputation.build_reputation(self.env, self.spec.config)
        self.log = self.make_log(self.generated)

    def run(self, op: int):
        q = self.queries[op]
        return composite.evaluate(
            self.env, self.log, q.trustor, q.trustee, q.category, HORIZON,
            self.spec.config, self.model,
        )

    def check(self, op: int, result) -> Optional[str]:
        return report_problem(self.env, self.queries[op], result)

    def final_checks(self) -> list[tuple[str, Optional[str]]]:
        """The served snapshot and the log each survive a trip through their files."""
        persist.save_snapshot(self.env, self.snapshot_path, self.model)
        env, model = persist.load_snapshot(self.snapshot_path)
        snapshot = None
        if env != self.env or model != self.model:
            snapshot = "changed the environment or the model"
        log_path = self.work / "log.jsonl"
        persist.dump_log(self.generated, log_path)
        log = None
        if persist.parse_log(log_path, strict=True)[0] != self.generated:
            log = "parsed records differ from the generated ones"
        return [("snapshot round trip", snapshot), ("log round trip", log)]


def epoch_end(k: int) -> float:
    return BACKLOG_END + EPOCH_LENGTH * k


class RefreshWorkload(Workload):
    """Set-up parses the backlog and builds, ranks and saves the first snapshot.

    Operation ``op`` is epoch ``op % EPOCHS + 1``: parse that epoch's chunk,
    rebuild the snapshot from the grown log, rebuild reputation, save the
    snapshot with the model and load it back.  Epoch 1 starts again from the
    backlog, so every pass of ``EPOCHS`` operations does the same work.
    """

    def __init__(self, spec: Spec, seed: int, work: Path, world_seed: int = DEFAULT_SEED):
        super().__init__(spec, seed, work)
        self.profiles, log = generate(spec.params(world_seed))
        self.backlog_path = work / "backlog.jsonl"
        persist.dump_log([r for r in log if r.time < BACKLOG_END], self.backlog_path)
        self.chunks: list[list[Interaction]] = []
        self.chunk_paths: list[Path] = []
        for k in range(1, EPOCHS + 1):
            chunk = [r for r in log if epoch_end(k - 1) <= r.time < epoch_end(k)]
            path = work / f"epoch{k:02d}.jsonl"
            persist.dump_log(chunk, path)
            self.chunks.append(chunk)
            self.chunk_paths.append(path)
        self.probes = spec.queries(seed, PROBE_STREAM, log)
        self.backlog: list[Interaction] = []

    def setup(self) -> None:
        self.release()
        self.backlog = persist.parse_log(self.backlog_path, strict=True)[0]
        self.env = core.build_environment(
            self.backlog, BACKLOG_END, self.spec.config.decay_rate, self.profiles
        )
        self.model = reputation.build_reputation(self.env, self.spec.config)
        persist.save_snapshot(self.env, self.snapshot_path, self.model)

    def run(self, op: int):
        k = op % EPOCHS
        if k == 0:
            self.log = self.make_log(self.backlog)
        chunk = persist.parse_log(self.chunk_paths[k], strict=True)[0]
        self.log.extend(chunk)
        env = core.build_environment(
            self.log, epoch_end(k + 1), self.spec.config.decay_rate, self.profiles
        )
        model = reputation.build_reputation(env, self.spec.config)
        persist.save_snapshot(env, self.snapshot_path, model)
        loaded_env, loaded_model = persist.load_snapshot(self.snapshot_path)
        return chunk, env, model, loaded_env, loaded_model

    def check(self, op: int, result) -> Optional[str]:
        """The chunk parses back exactly, the snapshot round-trips, and the
        reloaded snapshot answers one probe query within the report bounds."""
        chunk, env, model, loaded_env, loaded_model = result
        if chunk != self.chunks[op % EPOCHS]:
            return "parsed chunk differs from the generated records"
        if loaded_env != env or loaded_model != model:
            return "snapshot round trip changed the environment or the model"
        q = self.probes[op]
        report = composite.evaluate(
            loaded_env, self.log, q.trustor, q.trustee, q.category,
            loaded_env.snapshot_time, self.spec.config, loaded_model,
        )
        return report_problem(loaded_env, q, report)

    def should_stop(self, ops: int, busy: float, seconds: float) -> bool:
        # Only whole passes are measured, because epochs grow within a pass;
        # stop at the pass boundary nearest to the time budget.
        if ops % EPOCHS:
            return False
        per_pass = busy / (ops // EPOCHS)
        return busy + per_pass / 2 >= seconds

    def release(self) -> None:
        super().release()
        self.backlog = []


def make_workload(name: str, seed: int, work: Path, world_seed: int = DEFAULT_SEED) -> Workload:
    spec = SPECS[name]
    cls = RefreshWorkload if name == "refresh" else QueryWorkload
    return cls(spec, seed, work, world_seed)

