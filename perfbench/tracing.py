"""Outside-in tracing of padicloci's public functions and methods.

`Tracer.install` replaces every public function of the traced modules
with a timing wrapper, rebinding it in each module namespace that
imported the name (so `complexes.rank_division_free` is the wrapper
too), and wraps the public methods, constructors and arithmetic
operators of every class defined there (`CycNumber`, `PadicScalar`,
`UnramifiedScalar`, `TorsionCoset`, ...).  `uninstall` puts every
original back.  Nothing inside `src/` changes.

Leaf calls are far too many for a span each (one genus-2 scan makes
tens of thousands of `CycNumber` products), so every wrapper only adds
to per-function totals: calls, self time (its own duration minus the
time of wrapped calls it made) and inclusive time.  Spans are kept at
document level: one span per CLI document, opened by the benchmark
client around `cli.main`, with one child record per public function the
CLI called directly (calls and inclusive time), pointing at its parent
document span.

The program is single-threaded and has no queues or locks, so no layer
waits on another; there is no wait time to record.
"""

import inspect
import time

MODULES = (
    "cli",
    "complexes",
    "linalg",
    "laurent",
    "cyclotomic",
    "padic",
    "intlinalg",
    "cosets",
    "groups",
    "conic",
    "series",
)

# operators and constructors worth timing; other dunders (hash, repr,
# slots plumbing) stay unwrapped and count towards their caller
DUNDERS = {
    "__init__",
    "__eq__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
}


class Tracer:
    def __init__(self):
        # key -> [calls, self_s, inclusive_s]; inclusive time counts a
        # self-recursive function once per level of recursion
        self.stats = {}
        self.counters = {}
        self.spans = []
        self._stack = []
        self._doc = None
        self._patches = []
        self._hooks = {}

    # -- counters --------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def on(self, key, hook):
        """Call hook(tracer, caller, args, result) after each call of key;
        caller is the key of the innermost wrapped call it was made from,
        or None."""
        self._hooks[key] = hook

    # -- document spans ----------------------------------------------------

    def begin_document(self, index, cmd):
        self._doc = {
            "id": len(self.spans),
            "parent": None,
            "name": "document",
            "doc": index,
            "cmd": cmd,
            "start": time.perf_counter(),
            "children": {},
        }

    def end_document(self, code):
        doc = self._doc
        doc["end"] = time.perf_counter()
        doc["exit"] = code
        self.spans.append(doc)
        self._doc = None

    def span_records(self):
        """Document spans and their per-function children, flat, with parents."""
        out = []
        for doc in self.spans:
            out.append({k: doc[k] for k in ("id", "parent", "name", "doc", "cmd", "start", "end", "exit")})
            for key, (calls, total) in sorted(doc["children"].items()):
                out.append({"parent": doc["id"], "name": key, "calls": calls, "total_s": total})
        return out

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            depth = len(stack)
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if depth == 1 and tracer._doc is not None:
                    child = tracer._doc["children"].setdefault(key, [0, 0.0])
                    child[0] += 1
                    child[1] += elapsed
            if hook is not None:
                hook(tracer, stack[-1][1] if stack else None, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, package):
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = list(modules.values()) + [package]
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap("%s.%s" % (short, name), obj)
                    for ns in namespaces:
                        if ns.__dict__.get(name) is obj:
                            self._patch(ns, name, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = "%s.%s.%s" % (short, cls.__name__, name)
            if isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(key, attr.__func__)))
            elif isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(key, attr))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- aggregates ------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def self_s(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def inclusive_s(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def select(self, prefix, names=None):
        """Keys under a module or class prefix, optionally limited to names."""
        out = []
        for key in self.stats:
            if not key.startswith(prefix + "."):
                continue
            if names is None or key.rsplit(".", 1)[1] in names:
                out.append(key)
        return out

    def sum_calls(self, keys):
        return sum(self.calls(k) for k in keys)

    def sum_self(self, keys):
        return sum(self.self_s(k) for k in keys)
