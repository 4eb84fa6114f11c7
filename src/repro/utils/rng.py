"""Deterministic random-number streams and one-shot counter-based draws.

Reproducibility across thousands of concurrently simulated replicas requires
that each consumer (replica integrator, exchange decision, failure injector)
owns an independent stream whose state does not depend on scheduling order.
Stateful consumers get NumPy ``SeedSequence``-seeded generators from
:class:`RNGRegistry`.

Consumers that need a single draw per key (a task's duration jitter, a
replica's initial coordinates or speed) use :func:`counter_normal`
instead: a pure function of ``(seed, key)`` with no generator object and
no state to checkpoint.  It is a splitmix64 hash chain over the seed and
the key's parts followed by one Box–Muller transform, written in plain
Python integer arithmetic, so its values depend on nothing but this file
(no NumPy stream may move them across versions).
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: name of the one-shot draw scheme, stamped into checkpoints: a run
#: resumed under another scheme would diverge silently from the
#: uninterrupted one
RNG_SCHEME = "splitmix64-boxmuller-v1"

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 1.0 / 9007199254740992.0


def _splitmix64(x: int) -> int:
    """SplitMix64: advance ``x`` by the golden gamma and mix (a bijection
    on 64-bit words)."""
    z = (x + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _key_part(part) -> int:
    """A key part as the 64-bit word the hash chain absorbs."""
    if type(part) is str:
        raw = part.encode()
        return (zlib.crc32(raw) << 32) | zlib.adler32(raw)
    if type(part) is not int and not isinstance(part, (int, np.integer)):
        raise TypeError(f"key parts must be str or int, got {type(part).__name__}")
    return int(part) & _MASK64


def _box_muller(a: int, b: int) -> float:
    """A standard normal from two 64-bit words: 53-bit uniforms ``u1`` in
    (0, 1] and ``u2`` in [0, 1), then ``sqrt(-2 ln u1) cos(2 pi u2)``."""
    u1 = ((a >> 11) + 1) * _INV_2_53
    u2 = (b >> 11) * _INV_2_53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def counter_normal(seed: int, *key, _mix=_splitmix64) -> float:
    """One standard-normal draw, a pure function of ``(seed, key)``.

    The seed and each key part (str or int) are folded through splitmix64;
    a string part enters as the 64-bit digest ``crc32 << 32 | adler32`` of
    its UTF-8 bytes.  The first two outputs of a SplitMix64 generator
    seeded with that hash feed one Box–Muller transform
    (:func:`_box_muller`).

    >>> counter_normal(7, "init", 3, 0) == counter_normal(7, "init", 3, 0)
    True
    """
    h = _mix(seed & _MASK64)
    for part in key:
        h = _mix(h ^ _key_part(part))
    return _box_muller(_mix(h), _mix((h + _GOLDEN64) & _MASK64))


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` on a ``uint64`` array (arithmetic wraps mod
    2**64, which is the scalar version's masking)."""
    z = x + np.uint64(_GOLDEN64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


#: below this many keys the per-call NumPy overhead outweighs the
#: vectorised hashing; both paths return the same bits
_VECTOR_MIN_KEYS = 32


def counter_normals(seed: int, keys: Sequence[tuple]) -> List[float]:
    """``[counter_normal(seed, *key) for key in keys]``, bit for bit.

    Keys of a batch must have the same number of parts.  For a large
    batch (a sync phase's task keys, a lattice's start coordinates) the
    splitmix64 chain runs on NumPy ``uint64`` arrays; the Box–Muller step
    stays in Python's ``math`` so every value equals the scalar draw.
    """
    if len(keys) < _VECTOR_MIN_KEYS:
        return [counter_normal(seed, *key) for key in keys]
    n_parts = len(keys[0])
    if any(len(key) != n_parts for key in keys):
        raise ValueError("keys of one batch must have the same number of parts")
    h = np.full(len(keys), _splitmix64(seed & _MASK64), dtype=np.uint64)
    for i in range(n_parts):
        words = {}
        column = []
        for key in keys:
            part = key[i]
            word = words.get(part)
            if word is None:
                word = words[part] = _key_part(part)
            column.append(word)
        h = _splitmix64_array(h ^ np.array(column, dtype=np.uint64))
    a = _splitmix64_array(h).tolist()
    b = _splitmix64_array(h + np.uint64(_GOLDEN64)).tolist()
    return [_box_muller(x, y) for x, y in zip(a, b)]


def spawn_streams(seed: int, n: int) -> List[np.random.Generator]:
    """Spawn ``n`` independent generators from a root seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


class RNGRegistry:
    """Named, lazily created, independent RNG streams from one root seed.

    The stream for a given key is created on first access and is a
    deterministic function of ``(seed, key)`` alone — the order in which
    streams are first requested does not matter.

    Examples
    --------
    >>> reg = RNGRegistry(42)
    >>> r1 = reg.stream("replica", 7)
    >>> r2 = RNGRegistry(42).stream("replica", 7)
    >>> float(r1.random()) == float(r2.random())
    True
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: Dict[Tuple, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, *key) -> np.random.Generator:
        """Return the generator for ``key``, creating it deterministically.

        Key components must be hashable; strings and integers are hashed into
        the seed material so that distinct keys yield independent streams.
        """
        if key not in self._streams:
            entropy = [self._seed]
            for part in key:
                if isinstance(part, str):
                    # Stable string -> int digest independent of PYTHONHASHSEED.
                    acc = 0
                    for ch in part:
                        acc = (acc * 131 + ord(ch)) % (2**32)
                    entropy.append(acc)
                elif isinstance(part, (int, np.integer)):
                    entropy.append(int(part) % (2**32))
                else:
                    raise TypeError(
                        f"RNG key components must be str or int, got {type(part).__name__}"
                    )
            seq = np.random.SeedSequence(entropy)
            # Generator(PCG64(seq)) == default_rng(seq), minus the errstate
            # wrapper default_rng carries — this runs once per replica.
            self._streams[key] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[key]

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of every stream created so far.

        Keys are serialized as JSON lists (streams are keyed by tuples);
        values are the ``bit_generator.state`` dicts, which contain only
        Python ints/strings and round-trip exactly through JSON.
        """
        import json

        return {
            "seed": self._seed,
            "streams": {
                json.dumps(list(key)): gen.bit_generator.state
                for key, gen in self._streams.items()
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore stream states captured by :meth:`state_dict`.

        Streams are recreated lazily (creation is order-independent) and
        their generator state overwritten, so a resumed run continues the
        exact random sequences of the interrupted one.
        """
        import json

        if int(state["seed"]) != self._seed:
            raise ValueError(
                f"checkpoint seed {state['seed']} != registry seed {self._seed}"
            )
        for raw_key, gen_state in state["streams"].items():
            key = tuple(json.loads(raw_key))
            self.stream(*key).bit_generator.state = gen_state

    def __len__(self) -> int:
        return len(self._streams)
