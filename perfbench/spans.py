"""Outside-in layer spans for permnet's training loop.

``Tracer.install`` replaces the public functions and methods that form
each layer boundary (the rollout runner, the environments, the replay
buffer, the learner, the agent nets, the autodiff engine, the HPN and DPN
layers and the evaluator) with thin wrappers that record one span per call:
name, start, end, parent span and run id.  Nothing inside ``src/`` is
edited; ``Tracer.restore`` puts every original attribute back.

A span's name can depend on the phase it runs in (the nearest enclosing
rollout tick, train step or evaluation), so the same ``env.step`` is
``rollout.env_step`` under a tick and ``eval.env_step`` under
``evaluate_net``; those spans are not recorded outside their phases (at
set-up, for instance).  A call whose name equals the innermost open span
(``ShuffleWrapper.step`` delegating to ``MicroBattleEnv.step``) is folded
into that span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

ROLLOUT, TRAIN, EVAL = PHASES = ("rollout.tick", "learner.train_step",
                                  "eval.evaluate_net")

SPAN_NAMES = (
    "rollout.tick", "rollout.env_step", "rollout.env_reset", "rollout.avail",
    "rollout.net_act",
    "replay.add", "replay.sample", "replay.augment",
    "learner.train_step", "learner.net_online", "learner.net_target",
    "learner.net_grad", "learner.td_targets", "learner.mixer",
    "autodiff.backward", "autodiff.adam_step",
    "hpn.generate", "hpn.input_layer", "hpn.output_layer",
    "hpn.canonical_sum",
    "dpn.permutation_matrix", "dpn.gumbel_softmax",
    "eval.evaluate_net", "eval.env_step", "eval.net",
)

# percentiles tried for a span's tail, highest first; a percentile is used
# only when at least TAIL_BEYOND calls lie beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail_percentile(calls: int) -> float | None:
    """Highest listed percentile with at least TAIL_BEYOND calls past it."""
    for p in TAIL_PERCENTILES:
        if round(calls * (100.0 - p), 6) >= 100 * TAIL_BEYOND:
            return p
    return None


def _always(span_name: str):
    return lambda phase, args: span_name


def _by_phase(table: dict[str, str]):
    """Span name chosen by the enclosing phase; untraced elsewhere."""
    return lambda phase, args: table.get(phase)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0


@dataclass
class Counters:
    """Work seen at span boundaries during one run."""

    train_steps: int = 0
    real_steps: int = 0
    padded_steps: int = 0
    grad_rows: int = 0
    augmented: int = 0


class Tracer:
    """Records spans around permnet's layer boundaries while installed.

    ``nets`` is the list the benchmark's net factory appends to: element 0
    is the learner's online net, element 1 its target net.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = 0
        self.nets: list = []
        self.counters: dict[int, Counters] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- naming --------------------------------------------------------
    def _phase(self):
        for idx in reversed(self.stack):
            if self.spans[idx].name in PHASES:
                return self.spans[idx].name
        return None

    def _net_namer(self, phase, args):
        if phase == ROLLOUT:
            return "rollout.net_act"
        if phase == EVAL:
            return "eval.net"
        if phase != TRAIN:
            return None
        net = args[0]
        if len(self.nets) > 1 and net is self.nets[1]:
            return "learner.net_target"
        # the grad forward is the only one whose output joins the graph
        return lambda out: ("learner.net_grad" if out.requires_grad
                            else "learner.net_online")

    # -- counters observed at span boundaries ----------------------------
    def _count(self) -> Counters:
        return self.counters.setdefault(self.run, Counters())

    def _observe_train_step(self, args, result, name):
        episodes = args[1]
        count = self._count()
        count.train_steps += 1
        count.real_steps += sum(len(e) for e in episodes)
        count.padded_steps += len(episodes) * max(len(e) for e in episodes)

    def _observe_net(self, args, result, name):
        if name == "learner.net_grad":
            self._count().grad_rows += args[1].shape[0]

    def _observe_augment(self, args, result, name):
        self._count().augmented += len(result) - len(args[0])

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, namer, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            name = namer(tracer._phase(), args)
            if name is None or (tracer.stack and not callable(name)
                                and tracer.spans[tracer.stack[-1]].name
                                == name):
                return fn(*args, **kwargs)
            span = Span("" if callable(name) else name, 0.0,
                        parent=tracer.stack[-1] if tracer.stack else -1,
                        run=tracer.run)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if callable(name):
                span.name = name(result)
            if observe is not None:
                observe(args, result, span.name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        from permnet import (autodiff, baselines, dpn, env, gumbel, hpn,
                             learners)

        mixer = _by_phase({TRAIN: "learner.mixer"})
        methods = [
            (learners.ParallelRunner, "tick", _always(ROLLOUT), None),
            (learners.ReplayBuffer, "add", _always("replay.add"), None),
            (learners.ReplayBuffer, "sample", _always("replay.sample"), None),
            (learners.Learner, "train_step", _always(TRAIN),
             self._observe_train_step),
            (learners.QmixMixer, "__call__", mixer, None),
            (autodiff.Tensor, "backward",
             _by_phase({TRAIN: "autodiff.backward"}), None),
            (hpn.HyperLayer, "generate", _always("hpn.generate"), None),
        ]
        env_step = _by_phase({ROLLOUT: "rollout.env_step",
                              EVAL: "eval.env_step"})
        for cls in (env.MicroBattleEnv, env.ShuffleWrapper):
            methods += [
                (cls, "step", env_step, None),
                (cls, "reset", _by_phase({ROLLOUT: "rollout.env_reset"}),
                 None),
                (cls, "available_actions",
                 _by_phase({ROLLOUT: "rollout.avail"}), None),
            ]
        for cls in (hpn.HpnAgentNet, dpn.DpnAgentNet,
                    baselines.ConcatAgentNet, baselines.DeepSetAgentNet,
                    baselines.HpnSetAgentNet):
            methods.append((cls, "forward_batch", self._net_namer,
                            self._observe_net))
        functions = [
            (learners.augment_experience, _always("replay.augment"),
             self._observe_augment),
            (learners.td_lambda_targets, _always("learner.td_targets"), None),
            (learners.vdn_mix, mixer, None),
            (learners.evaluate_net, _always(EVAL), None),
            (autodiff.adam_step, _always("autodiff.adam_step"), None),
            (autodiff.canonical_sum, _always("hpn.canonical_sum"), None),
            (hpn.hpn_input_layer, _always("hpn.input_layer"), None),
            (hpn.hpn_output_layer, _always("hpn.output_layer"), None),
            (dpn.generate_permutation_matrix,
             _always("dpn.permutation_matrix"), None),
            (gumbel.gumbel_softmax, _always("dpn.gumbel_softmax"), None),
        ]
        return methods, functions

    def install(self):
        """Wrap every layer boundary; functions are replaced under every
        name a permnet module binds them to."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        methods, functions = self._targets()
        for cls, attr, namer, observe in methods:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, namer, observe))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "permnet" or n.startswith("permnet.")]
        for fn, namer, observe in functions:
            wrapper = self._wrap(fn, namer, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis --------------------------------------------------------
    def self_times(self, run: int) -> dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span.run == run and span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.run == run:
                own = span.end - span.start - child[i]
                out[span.name] = out.get(span.name, 0.0) + own
        return out

    def totals(self, run: int) -> dict[str, float]:
        """Per span name: total duration, children included."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span.run == run:
                out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def root_time(self, run: int) -> float:
        """Time covered by top-level spans of one run."""
        return sum(s.end - s.start for s in self.spans
                   if s.run == run and s.parent < 0)

    def calls(self, run: int) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            if span.run == run:
                out[span.name] = out.get(span.name, 0) + 1
        return out

    def durations(self) -> dict[str, np.ndarray]:
        """Span durations in seconds, pooled over every run."""
        pooled: dict[str, list[float]] = {}
        for span in self.spans:
            pooled.setdefault(span.name, []).append(span.end - span.start)
        return {k: np.asarray(v) for k, v in pooled.items()}

    def write_csv(self, path):
        """Dump every span: id, run, name, start, end, parent id."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,run,name,start_s,end_s,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.run},{s.name},{s.start!r},{s.end!r},"
                         f"{s.parent}\n")
