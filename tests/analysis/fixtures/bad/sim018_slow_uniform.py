"""BAD: no-argument .uniform() rolls on a stream (SIM018).

Each gives the value .random() gives, at several times the call cost.
The bound form hides the missing arguments at its call sites.
"""


def canary_roll(registry, service: str, fraction: float) -> bool:
    return registry.stream(f"canary/{service}").uniform() < fraction


class Thinning:
    def accept(self, stream, ratio: float) -> bool:
        return stream.uniform() <= ratio


class BoundRoll:
    def __init__(self, stream):
        self._uniform = stream.uniform

    def accept(self, ratio: float) -> bool:
        return self._uniform() <= ratio
