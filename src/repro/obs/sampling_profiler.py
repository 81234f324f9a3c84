"""Signal-free statistical profiler over ``sys._current_frames()``.

``repro profile`` (PR 1) instruments *one* query exhaustively; a
serving process needs the opposite trade — negligible overhead,
all queries, statistical truth.  :class:`SamplingProfiler` walks the
live Python frames of every worker thread on each clock tick (the
resource sampler's tick, by default), records each stack as a tuple of
``module:function`` labels restricted to this package's code, and
attributes the innermost engine frame to the paper's §4 evaluation
phase.  Because it reads frames instead of installing signal handlers
it works from any thread, needs no cooperation from the profiled code,
and costs nothing between ticks.

Two readouts:

* :meth:`collapsed` — Brendan Gregg collapsed-stack lines
  (``root;frame;frame count``), directly loadable by ``flamegraph.pl``
  or speedscope;
* :meth:`hot_phases` — sample counts per engine phase / module, the
  summary ``/debug/vars`` embeds.

Sampling bias caveat: stacks are captured at clock boundaries, so the
counts estimate *wall-clock* attribution (including time blocked on
the GIL), with resolution bounded by the tick interval.
"""

from __future__ import annotations

import sys
import threading

#: Innermost-frame function names mapped to the paper's evaluation
#: phases (§4.1-§4.3) plus the serving/compile stages around them.
#: Matching is by suffix-of-stack search: the deepest frame whose
#: function appears here names the sample's phase.
PHASE_BY_FUNCTION = {
    # §4.1 predicates-from-objects (L_p descents)
    "_lp_wave": "predicates_from_objects",
    "_expand_entry_scalar": "predicates_from_objects",
    # §4.2 subjects-from-predicates (L_s descents / backward steps)
    "_ls_wave": "subjects_from_predicates",
    "_collect_scalar": "subjects_from_predicates",
    "backward_step": "subjects_from_predicates",
    "backward_step_many": "subjects_from_predicates",
    # §4.3 subjects-to-objects (C_o mapping)
    "object_ranges": "subjects_to_objects",
    "object_ranges_many": "subjects_to_objects",
    # query compilation / dispatch
    "_prepare": "prepare",
    "_dispatch": "dispatch",
    # serving machinery
    "_worker_loop": "serve.idle",
    "_finish": "serve.bookkeeping",
}


def frame_label(frame) -> str:
    """``shortmodule:function`` label for one frame."""
    module = frame.f_globals.get("__name__", "?")
    # Keep labels compact: "repro.core.engine" -> "core.engine".
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{frame.f_code.co_name}"


class SamplingProfiler:
    """Statistical stack sampler attributing time to engine phases.

    Parameters
    ----------
    module_prefixes:
        Only frames whose ``__name__`` starts with one of these
        prefixes enter the recorded stack (the interpreter and stdlib
        frames between them are elided); a sample with no matching
        frame at all is attributed to the ``other`` root.
    max_stacks:
        Bound on distinct recorded stacks; past it, new shapes
        collapse into their phase root so memory stays bounded under
        pathological stack diversity.
    """

    def __init__(self, module_prefixes: tuple[str, ...] = ("repro",),
                 max_stacks: int = 10_000):
        self.module_prefixes = tuple(module_prefixes)
        self.max_stacks = max_stacks
        self.samples = 0
        self.truncated_stacks = 0
        self._counts: dict[tuple[str, ...], int] = {}
        self._phase_counts: dict[str, int] = {}
        # Only explicitly-ignored threads live here; the thread calling
        # sample() is always skipped dynamically, so the constructing
        # thread (often the one running the workload) stays profilable.
        self._ignored: set[int] = set()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def ignore_thread(self, thread: "threading.Thread | int") -> None:
        """Exclude a thread (the sampler's own clock, the HTTP server)
        from future samples.  Accepts a Thread or a raw ident."""
        ident = thread if isinstance(thread, int) else thread.ident
        if ident is not None:
            with self._lock:
                self._ignored.add(ident)

    def _walk(self, frame) -> tuple[list[str], str]:
        """One thread's ``(stack labels outermost-first, phase)``."""
        labels: list[str] = []
        phase = "other"
        probe = frame
        while probe is not None:
            module = probe.f_globals.get("__name__", "")
            if module.startswith(self.module_prefixes):
                labels.append(frame_label(probe))
                if phase == "other":
                    mapped = PHASE_BY_FUNCTION.get(probe.f_code.co_name)
                    if mapped is not None:
                        phase = mapped
            probe = probe.f_back
        labels.reverse()
        if phase == "other" and labels:
            # No phase-mapped frame: attribute to the innermost module.
            phase = labels[-1].split(":", 1)[0]
        return labels, phase

    def sample(self) -> int:
        """Capture one sample of every live (non-ignored) thread.

        Returns the number of thread stacks recorded.  Called from the
        resource-sampler tick; also safe to call directly.
        """
        own = threading.get_ident()
        frames = sys._current_frames()
        recorded = 0
        with self._lock:
            ignored = self._ignored
            for ident, frame in frames.items():
                if ident == own or ident in ignored:
                    continue
                labels, phase = self._walk(frame)
                if not labels:
                    continue
                stack = tuple(labels)
                counts = self._counts
                if stack not in counts and len(counts) >= self.max_stacks:
                    # Memory bound: collapse novel shapes to the phase.
                    stack = (f"(truncated:{phase})",)
                    self.truncated_stacks += 1
                counts[stack] = counts.get(stack, 0) + 1
                phases = self._phase_counts
                phases[phase] = phases.get(phase, 0) + 1
                recorded += 1
            self.samples += 1
        return recorded

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._phase_counts.clear()
            self.samples = 0
            self.truncated_stacks = 0

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def stack_counts(self) -> dict[tuple[str, ...], int]:
        """Copy of the raw ``stack tuple -> samples`` table."""
        with self._lock:
            return dict(self._counts)

    def hot_phases(self) -> dict[str, int]:
        """Sample counts per engine phase / module, descending."""
        with self._lock:
            phases = dict(self._phase_counts)
        return dict(sorted(phases.items(), key=lambda kv: (-kv[1], kv[0])))

    def collapsed(self, root: str = "repro") -> str:
        """Flamegraph collapsed-stacks text (``root;f1;f2 count``).

        Feed the returned string to ``flamegraph.pl`` or paste it into
        speedscope to see where sampled wall-clock went.
        """
        lines = []
        for stack, count in sorted(self.stack_counts().items()):
            frames = ";".join((root, *stack))
            lines.append(f"{frames} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path, root: str = "repro") -> None:
        """Dump :meth:`collapsed` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed(root))

    def snapshot(self, top: int = 20) -> dict:
        """JSON-ready summary for ``/debug/vars``: totals, phase
        attribution, and the ``top`` hottest stacks."""
        with self._lock:
            counts = dict(self._counts)
            phases = dict(self._phase_counts)
            samples = self.samples
            truncated = self.truncated_stacks
        hottest = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "samples": samples,
            "distinct_stacks": len(counts),
            "truncated_stacks": truncated,
            "phases": dict(
                sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "top_stacks": [
                {"stack": list(stack), "samples": count}
                for stack, count in hottest[:top]
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SamplingProfiler(samples={self.samples}, "
                f"stacks={len(self._counts)})")
