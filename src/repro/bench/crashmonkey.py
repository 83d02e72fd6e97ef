"""crashmonkey: systematic crash-recovery exploration for RocksMash.

Runs a deterministic mixed workload against a small hybrid store with one
crash point armed, lets the simulated process die mid-operation, crashes
the devices (optionally with a torn local tail), reopens, and verifies:

* the :class:`~repro.sim.failure.RecoveryOracle` invariants — durability of
  every acknowledged write, per-key prefix consistency, no resurrection of
  deletes or fabrication of keys;
* the offline structural invariants of :func:`repro.lsm.check.check_db`;
* crash-specific postconditions (a partial checkpoint is invisible and
  unrestorable; the store accepts and persists writes after recovery).

The sites are the commit windows of flush, compaction, manifest rewrite,
demotion, xWAL multi-shard sync, checkpointing and the blob log; every write
the workload makes goes through the facade or a checkpoint, so it reaches
each of them without an engine-only entry point.

Two modes compose the matrix (named after the OSDI'18 CrashMonkey tool,
which explored crash states of real filesystems the same way):

* **enumerate** — every registered crash point, ``skip=0``; a site the
  workload never reaches is itself a failure (coverage regression);
* **random schedules** — seeded draws of (site, skip, torn-tail) explore
  "the same crash, later in the workload"; an unreached site is fine here.

CLI::

    PYTHONPATH=src python -m repro.bench.crashmonkey --quick
    PYTHONPATH=src python -m repro.bench.crashmonkey --seeds 8 --steps 400
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field

from repro.lsm.check import check_db
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.mash.checkpoint import create_checkpoint, list_checkpoints
from repro.mash.placement import PlacementConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.mash.xwal import XWalConfig
from repro.sim.failure import CrashPointFired, RecoveryOracle, crash_points

CHECKPOINT_NAME = "crashmonkey"


def crashmonkey_config() -> StoreConfig:
    """A store tuned so a short workload exercises every crash site.

    Tiny buffers force flushes and compactions; ``cloud_level=1`` demotes
    every compaction output; 1 KiB multipart parts make those demotions
    multi-part; 4 xWAL shards give multi-shard batches; a small manifest
    cap forces rewrites mid-run. Blob separation is on with a 2 KiB
    segment cap so blob values seal multi-part segments, and hot-key
    overwrites in the workload drive segments fully dead for GC.
    """
    return StoreConfig(
        options=Options(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=8 << 10,
            target_file_size_base=2 << 10,
            block_cache_bytes=8 << 10,
            max_manifest_file_size=1 << 10,
            blob_value_threshold=256,
            blob_segment_bytes=2 << 10,
        ),
        placement=PlacementConfig(cloud_level=1, multipart_part_bytes=1 << 10),
        xwal=XWalConfig(num_shards=4),
    )


def _key(i: int) -> bytes:
    return f"key-{i:05d}".encode()


def _value(i: int) -> bytes:
    return f"value-{i:05d}.".encode() * 8


def _blob_value(i: int) -> bytes:
    # 440 B — past the 256 B threshold, so it is diverted to the blob log.
    return f"blob!-{i:05d}.".encode() * 40


def run_workload(store: RocksMashStore, oracle: RecoveryOracle, *, steps: int) -> None:
    """Mixed puts / multi-key batches / deletes, checkpoint at the midpoint.

    Blob-sized values land on a small hot key set so earlier segments go
    fully dead as compaction drops the overwritten pointers, giving blob GC
    segments to rewrite and delete within one run. Every mutation is routed
    through the oracle so an interrupting :class:`CrashPointFired` leaves
    exactly one op in flight.
    """
    for i in range(steps):
        if i == steps // 2:
            create_checkpoint(store, CHECKPOINT_NAME)
        if i % 7 == 3:
            batch = WriteBatch()
            for j in range(4):
                batch.put(_key(i * 10 + j), _value(i))
            oracle.write(store, batch)
        elif i % 11 == 5 and i > 20:
            oracle.delete(store, _key(i - 20))
        elif i % 3 == 0:
            oracle.put(store, _key(i % 17), _blob_value(i))
        else:
            oracle.put(store, _key(i), _value(i))


@dataclass
class ScheduleResult:
    """Outcome of one crash schedule."""

    site: str
    skip: int
    torn_tail: bool
    fired: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_schedule(
    site: str,
    *,
    skip: int = 0,
    torn_tail_seed: int | None = None,
    steps: int = 260,
    require_fired: bool = False,
) -> ScheduleResult:
    """Run one workload with ``site`` armed; crash, recover, verify."""
    crash_points.reset()
    result = ScheduleResult(
        site=site, skip=skip, torn_tail=torn_tail_seed is not None, fired=False
    )
    store = RocksMashStore.create(crashmonkey_config())
    oracle = RecoveryOracle()
    crash_points.arm(site, skip=skip)
    try:
        run_workload(store, oracle, steps=steps)
    # crashmonkey IS the harness: the one sanctioned consumer of a fired
    # crash point (it crashes the devices and reopens the store).
    # reprolint: ignore[RL003] -- harness consumes the crash by design
    except CrashPointFired:
        result.fired = True
        oracle.crash()
    finally:
        crash_points.disarm()

    if result.fired:
        store = store.reopen(crash=True, torn_tail_seed=torn_tail_seed)
    else:
        if require_fired:
            result.problems.append(
                f"armed site {site!r} was never reached by the workload"
            )
        store = store.reopen()

    result.problems += oracle.verify(store)
    report = check_db(store.env, store.config.db_prefix, store.config.options)
    result.problems += [f"check_db: {e}" for e in report.errors]

    if result.fired and site.startswith("checkpoint."):
        # The manifest object is the commit point: an interrupted checkpoint
        # must be invisible (its table objects are mere garbage).
        if CHECKPOINT_NAME in list_checkpoints(store.cloud_store):
            result.problems.append("partial checkpoint is listed as complete")

    # The recovered store must still accept and persist writes.
    oracle.put(store, b"post-recovery-probe", b"alive")
    if store.get(b"post-recovery-probe") != b"alive":
        result.problems.append("post-recovery write not readable")
    store.close()
    crash_points.reset()
    return result


def run_matrix(
    *, seeds: int = 1, steps: int = 260, torn_tail: bool = True
) -> list[ScheduleResult]:
    """Enumerate every site, then ``seeds`` random schedules per seed."""
    results = [
        run_schedule(site, steps=steps, require_fired=True)
        for site in crash_points.sites()
    ]
    sites = crash_points.sites()
    for seed in range(seeds):
        rng = random.Random(1000 + seed)
        site = rng.choice(sites)
        skip = rng.randrange(4)
        seed_for_tail = rng.randrange(1 << 16) if torn_tail and rng.random() < 0.5 else None
        results.append(
            run_schedule(site, skip=skip, torn_tail_seed=seed_for_tail, steps=steps)
        )
    return results


def format_matrix(results: list[ScheduleResult]) -> str:
    lines = [f"{'site':34} {'skip':>4} {'torn':>4} {'fired':>5}  result"]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(
            f"{r.site:34} {r.skip:>4} {str(r.torn_tail):>4} {str(r.fired):>5}  {status}"
        )
        for problem in r.problems:
            lines.append(f"    ! {problem}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results)} schedules, {failed} failing")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="every registered crash point plus one random schedule",
    )
    parser.add_argument("--seeds", type=int, default=4, help="random schedules to run")
    parser.add_argument("--steps", type=int, default=260, help="workload ops per schedule")
    parser.add_argument(
        "--no-torn", action="store_true", help="disable torn-tail crashes in random schedules"
    )
    args = parser.parse_args(argv)
    seeds = 1 if args.quick else args.seeds
    results = run_matrix(seeds=seeds, steps=args.steps, torn_tail=not args.no_torn)
    print(format_matrix(results))
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
