"""Campaign execution: admit, reserve, dispatch, merge, finalize.

The control flow mirrors the run-level parallel scheduler one layer up
— experiments are the schedulable units:

1. **Admit**: :func:`repro.campaign.admission.plan_admission` computes
   the deterministic plan and ``admission.jsonl`` is written up front.
2. **Reserve**: every admitted window is booked on the *shared* pool
   calendar through :meth:`Allocator.reserve` — all-or-nothing, in
   decision order, so booking ids are deterministic.  Each placement
   also enqueues on the calendar wait-list of its nodes, in dispatch
   order.
3. **Dispatch**: a placement becomes eligible when it heads the
   wait-list of *every* node it booked and those nodes are FREE — i.e.
   all predecessors on its nodes have completed and released.  Eligible
   placements are claimed (reservation → live allocation) and handed to
   worker processes (``--jobs N``) or run inline (``--jobs 1``); both
   paths call the same :func:`repro.campaign.workload.run_placement`.
4. **Merge**: outcomes flow through a
   :class:`repro.core.scheduler.ReorderBuffer`, so campaign journal
   entries (and completion callbacks) land strictly in admission order
   no matter the completion order — the journal is byte-identical for
   any job count and a crash leaves a resumable prefix.
5. **Finalize**: campaign-level telemetry (``campaign.json``,
   ``campaign-trace.jsonl``) and the published index page are written
   as pure functions of the outcome set.

Resume (``--resume``) recomputes the plan (pure function of the spec),
replays the journal, and classifies each admitted experiment: journaled
ok → adopt; its own tree complete → adopt without invoking the
controller; trustworthy partial journal → controller-level resume;
anything else → wipe and re-run.  Boundary crashes therefore reproduce
byte-identical trees; a duplicated run directory is impossible.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.campaign.admission import Placement, plan_admission
from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import CampaignSpec, load_campaign_file
from repro.campaign import workload as _workload
from repro.core.allocation import Allocation, Allocator, Reservation
from repro.core.calendar import Calendar
from repro.core.errors import CampaignError
from repro.core.scheduler import ReorderBuffer, resolve_jobs
from repro.telemetry.campaign import CampaignTelemetry
from repro.telemetry.jsonl import read_jsonl, read_jsonl_or_none
from repro.testbed.node import Node, NodeState

__all__ = ["CampaignResult", "run_campaign", "campaign_status"]


@dataclass
class CampaignResult:
    """What a finished campaign returns."""

    name: str
    path: str
    admitted: int
    rejected: int
    experiments: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.get("ok") for entry in self.experiments)

    @property
    def completed_experiments(self) -> int:
        return sum(1 for entry in self.experiments if entry.get("ok"))

    @property
    def failed_experiments(self) -> int:
        return sum(1 for entry in self.experiments if not entry.get("ok"))


def _build_pool(spec: CampaignSpec) -> Allocator:
    """The shared pool: bookkeeping nodes + the campaign calendar.

    The pool clock is pinned to the campaign's base epoch — virtual
    time, like everything else that feeds admission.
    """
    calendar = Calendar(clock=lambda: spec.base_epoch)
    nodes = {name: Node(name) for name in spec.pool}
    return Allocator(calendar, nodes)


def _classify(
    campaign_dir: str,
    spec: CampaignSpec,
    placement: Placement,
    journaled: Dict[int, dict],
    resume: bool,
) -> str:
    """Decide how one admitted experiment executes (or is adopted)."""
    if placement.execution_index in journaled:
        return "journaled"
    if not resume:
        return "fresh"
    expected = _workload.expected_result_dir(
        campaign_dir, spec.base_epoch, placement
    )
    state = _workload.inspect_result_dir(expected, placement.spec.run_count)
    if state == "complete":
        return "complete"
    if state == "partial":
        return "resume"
    return "fresh"


def _adopted_outcome(
    campaign_dir: str, spec: CampaignSpec, placement: Placement, how: str,
    journaled: Dict[int, dict],
) -> dict:
    """An outcome for an experiment that needs no execution."""
    if how == "journaled":
        entry = journaled[placement.execution_index]
        return {
            "index": placement.execution_index,
            "name": placement.spec.name,
            "user": placement.spec.user,
            "ok": True,
            "dir": entry.get("dir"),
            "runs_completed": int(entry.get("runs_completed", 0)),
            "runs_failed": int(entry.get("runs_failed", 0)),
            "error": None,
            "adopted": True,
            "journaled": True,
        }
    expected = _workload.expected_result_dir(
        campaign_dir, spec.base_epoch, placement
    )
    counts = _workload.completed_counts(expected)
    return {
        "index": placement.execution_index,
        "name": placement.spec.name,
        "user": placement.spec.user,
        "ok": True,
        "dir": os.path.relpath(expected, campaign_dir),
        "runs_completed": counts["runs_completed"],
        "runs_failed": counts["runs_failed"],
        "error": None,
        "adopted": True,
    }


def run_campaign(
    campaign: Union[str, CampaignSpec],
    results_dir: str,
    jobs: Optional[int] = None,
    resume: bool = False,
    on_experiment_complete: Optional[Callable[[dict], None]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    agents: Optional[int] = None,
) -> CampaignResult:
    """Run (or resume) a campaign against one shared simulated pool.

    ``agents`` > 0 executes each experiment's runs on the distributed
    plane (``agents`` loopback node agents per experiment) instead of
    inline — see :mod:`repro.dist`.  Orthogonal to ``jobs``, which
    controls how many *experiments* run concurrently.
    """
    spec = (
        load_campaign_file(campaign) if isinstance(campaign, str) else campaign
    )
    spec.validate()
    jobs = resolve_jobs(jobs)
    from repro.dist import resolve_agents

    agents = resolve_agents(agents)
    plan = plan_admission(spec)
    campaign_dir = os.path.abspath(results_dir)
    os.makedirs(campaign_dir, exist_ok=True)
    plan.write(campaign_dir)

    if resume:
        journal = CampaignJournal.open(campaign_dir)
        try:
            journal.validate_against(spec.name, len(plan.admitted))
            journaled = journal.completed()
        except Exception:
            journal.close()
            raise
    else:
        journal = CampaignJournal.create(
            campaign_dir, spec.name, len(plan.admitted)
        )
        journaled = {}

    telemetry = CampaignTelemetry(campaign_dir)
    result = CampaignResult(
        name=spec.name,
        path=campaign_dir,
        admitted=len(plan.admitted),
        rejected=len(plan.rejected),
    )
    total = len(plan.admitted)

    # -- reserve: shared pool calendar, decision order --------------------
    allocator = _build_pool(spec)
    calendar = allocator.calendar
    reservations: Dict[int, Reservation] = {}
    for placement in plan.admitted:
        reservations[placement.execution_index] = allocator.reserve(
            placement.spec.user,
            placement.nodes,
            placement.end - placement.start,
            start=spec.base_epoch + placement.start,
        )
    # Classify before enqueueing: adopted experiments never join the
    # wait-lists, so a tree that finished out of admission order (a
    # crash at --jobs > 1, or a repaired hole mid-campaign) cannot
    # wedge the queues of the experiments that still have to execute.
    how_by_index: Dict[int, str] = {
        placement.execution_index: _classify(
            campaign_dir, spec, placement, journaled, resume
        )
        for placement in plan.admitted
    }
    for placement in plan.dispatch_order():
        if how_by_index[placement.execution_index] in (
            "journaled", "complete"
        ):
            continue
        for node in placement.nodes:
            calendar.enqueue_waiter(node, placement.execution_index)

    # -- merge: journal entries strictly in admission order ---------------
    def deliver(index: int, outcome: dict) -> None:
        result.experiments.append(outcome)
        # An experiment adopted from the campaign journal already has
        # its entry; everything else — including a tree adopted from a
        # crashed-but-finished worker — is journalled now, in order.
        if not outcome.get("journaled"):
            journal.record_experiment(
                index,
                outcome["name"],
                outcome["user"],
                ok=bool(outcome["ok"]),
                result_dir=outcome.get("dir"),
                runs_completed=int(outcome.get("runs_completed", 0)),
                runs_failed=int(outcome.get("runs_failed", 0)),
                error=outcome.get("error"),
            )
        if progress is not None:
            progress(len(result.experiments), total)
        if on_experiment_complete is not None:
            on_experiment_complete(outcome)

    buffer = ReorderBuffer(total, deliver)

    # -- dispatch ----------------------------------------------------------
    claimed: Dict[int, Allocation] = {}
    by_index = {p.execution_index: p for p in plan.admitted}
    waiting: List[Placement] = []

    def finish(index: int) -> None:
        """Release one experiment's pool nodes; wait-lists advance."""
        allocation = claimed.pop(index, None)
        if allocation is not None:
            allocation.release()
        placement = by_index[index]
        for node in placement.nodes:
            if index in calendar.waiting(node):
                popped = calendar.pop_waiter(node)
                if popped != index:
                    raise CampaignError(
                        f"wait-list of node {node!r} out of order: expected "
                        f"{index}, found {popped}"
                    )

    def claim(placement: Placement) -> Optional[dict]:
        """Claim an eligible experiment's nodes and return its execution
        request; ``None`` while it does not head every booked node's
        wait-list or a node is not FREE."""
        index = placement.execution_index
        for node in placement.nodes:
            queue = calendar.waiting(node)
            if not queue or queue[0] != index:
                return None
            if allocator.nodes[node].state is not NodeState.FREE:
                return None
        claimed[index] = allocator.claim(reservations[index])
        return _workload.execution_request(
            campaign_dir, spec.base_epoch, placement,
            "resume" if how_by_index[index] == "resume" else "fresh",
            agents=agents,
        )

    try:
        for placement in plan.dispatch_order():
            how = how_by_index[placement.execution_index]
            if how in ("journaled", "complete"):
                # Never enqueued, nothing claimed: just deliver the
                # adopted outcome through the reorder buffer.
                buffer.put(
                    placement.execution_index,
                    _adopted_outcome(
                        campaign_dir, spec, placement, how, journaled
                    ),
                )
                continue
            if how == "fresh":
                expected = _workload.expected_result_dir(
                    campaign_dir, spec.base_epoch, placement
                )
                if os.path.isdir(expected):
                    # A tree without a trustworthy journal: wipe it so a
                    # re-run can never duplicate a run directory.
                    shutil.rmtree(expected)
            waiting.append(placement)
        buffer.drain()

        if jobs <= 1:
            # Inline path: dispatch order *is* completion order, through
            # exactly the same worker function as the process pool.
            for placement in waiting:
                request = claim(placement)
                if request is None:
                    raise CampaignError(
                        f"experiment {placement.spec.name!r} is not "
                        f"dispatchable; the admission plan is inconsistent"
                    )
                outcome = _workload.run_placement(request)
                finish(placement.execution_index)
                buffer.put(placement.execution_index, outcome)
                buffer.drain()
        elif waiting:
            pending = list(waiting)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {}

                def submit_ready() -> None:
                    remaining = []
                    for placement in pending:
                        request = claim(placement)
                        if request is None:
                            remaining.append(placement)
                        else:
                            futures[
                                pool.submit(_workload.run_placement, request)
                            ] = placement.execution_index
                    pending[:] = remaining

                submit_ready()
                while futures:
                    done, _ = wait(
                        list(futures), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index = futures.pop(future)
                        outcome = future.result()
                        finish(index)
                        buffer.put(index, outcome)
                    submit_ready()
                    buffer.drain()

        if not buffer.complete():
            raise CampaignError(
                f"campaign finished with {total - buffer.next_index} "
                f"experiment(s) undelivered"
            )
        completion = {"event": "complete", "ok": result.ok}
        # Resuming a campaign that already finished must leave the
        # journal byte-identical — never stack a second completion.
        if completion not in journal.entries:
            journal.record_event("complete", ok=result.ok)
    finally:
        journal.close()

    # -- finalize: pure functions of the outcome set ----------------------
    telemetry.finalize(spec, plan, result.experiments)
    from repro.publication.website import generate_campaign_index

    generate_campaign_index(campaign_dir)
    return result


def campaign_status(campaign_dir: str) -> str:
    """One-shot textual status of a campaign directory, artifacts only."""
    admission_path = os.path.join(campaign_dir, "admission.jsonl")
    if not os.path.isfile(admission_path):
        raise CampaignError(f"no admission log at {admission_path}")
    decisions = read_jsonl(admission_path)
    journaled: Dict[int, dict] = {}
    header: dict = {}
    complete = False
    journal_path = os.path.join(campaign_dir, "journal.jsonl")
    for entry in read_jsonl_or_none(journal_path) or []:
        if entry.get("event") == "campaign":
            header = entry
        elif entry.get("event") == "experiment":
            journaled[int(entry["index"])] = entry
        elif entry.get("event") == "complete":
            complete = True
    lines = []
    name = header.get("name", os.path.basename(campaign_dir))
    lines.append(f"campaign: {name}")
    admitted = [d for d in decisions if d.get("event") == "admit"]
    rejected = [d for d in decisions if d.get("event") == "reject"]
    lines.append(
        f"admitted: {len(admitted)}  rejected: {len(rejected)}  "
        f"finished: {len(journaled)}/{len(admitted)}"
        + ("  [complete]" if complete else "")
    )
    for decision in admitted:
        index = int(decision.get("execution", 0))
        entry = journaled.get(index)
        if entry is None:
            state = "pending"
        elif entry.get("ok"):
            state = (
                f"ok ({entry.get('runs_completed', 0)} runs)"
            )
        else:
            state = f"FAILED ({entry.get('error')})"
        lines.append(
            f"  [{index}] {decision['user']}/{decision['experiment']} "
            f"nodes={','.join(decision['nodes'])} "
            f"window=[{decision['start']}, {decision['end']}) -> {state}"
        )
    for decision in rejected:
        lines.append(
            f"  [-] {decision['user']}/{decision['experiment']} "
            f"REJECTED ({decision['reason']})"
        )
    return "\n".join(lines) + "\n"
