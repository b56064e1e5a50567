"""Reader for the span file a traced run writes: per-span self time (its
duration minus the part of it its children cover) and per-name totals."""
import statistics
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int
    req: int
    name: str
    start: float
    end: float
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, req, name, start, end = line.rstrip("\n").split("\t")
            spans[int(sid)] = Span(int(sid), int(parent), int(req), name,
                                   float(start), float(end))
    for s in spans.values():
        if s.parent in spans:
            spans[s.parent].children.append(s)
    return list(spans.values())


def self_time(span):
    """Duration minus the union of the children's intervals, clipped to
    the span."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(span.children, key=lambda c: c.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def summarize(spans):
    """{name: {count, total_s, self_s, median_s, durations}} per span name."""
    out = {}
    for s in spans:
        e = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                    "durations": []})
        e["count"] += 1
        e["total_s"] += s.duration
        e["self_s"] += self_time(s)
        e["durations"].append(s.duration)
    for e in out.values():
        e["median_s"] = statistics.median(e["durations"])
    return out
