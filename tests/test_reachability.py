"""Every function under src/negofs runs in some CLI invocation, or is allowlisted.

A fixed set of argvs runs in-process through ``cli.main`` under
``sys.setprofile``, which records the code object of every Python frame
entered. The argvs cover the golden comparison, every algorithm on a
sparse-text file, a min-utility run, ``recover``, and one config error and
one dataset error, so that error constructors count as entered.

The functions defined under src/negofs are listed through ``inspect``:
module functions and class members, including the targets of ``property``,
``staticmethod`` and ``classmethod``. A function whose code lives in another
file, such as a dataclass-generated method, is not negofs code and is left
out. Functions are matched by code-object identity and named
``module:qualname``.
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
from pathlib import Path

import pytest

import negofs
from negofs import cli
from negofs.data import SyntheticSpec, generate_synthetic, save_sparse_text

PACKAGE = Path(negofs.__file__).parent
SOURCES = {os.path.realpath(p) for p in PACKAGE.glob("*.py")}

# Each entry is a function no argv enters, with the reason it stays.
ALLOWLIST = {
    "negotiation:NegotiationTranscript.__init__":
        "the transcript observer: perfbench/layers.py patches its append on every traced run",
    "negotiation:NegotiationTranscript.append":
        "perfbench/layers.py patches it to count negotiation.transcript.messages",
    "negotiation:NegotiationTranscript.on_trial":
        "the transcript's observer hook, which the serialize() pins in tests/ record through",
    "negotiation:NegotiationTranscript.__len__":
        "the transcript's message count, which its tests in tests/ read",
    "negotiation:NegotiationTranscript.serialize":
        "the transcript's bytes, which the sha256 pins in tests/test_system.py hash",
    "negotiation:_digest":
        "what the transcript keeps of a vector",
    "negotiation:TrialObserver.on_trial":
        "the Protocol stub that types run_negotiation's observer",
    "sparse:SparseVector.__getstate__":
        "public API: no code under src/ pickles or copies a vector, but users may, and "
        "tests/test_sparse.py does; without it pickle and copy.copy raise",
    "sparse:SparseVector.__setstate__":
        "public API: no code under src/ pickles or copies a vector, but users may, and "
        "tests/test_sparse.py does; without it pickle and copy.copy raise",
    "sparse:SparseVector.__eq__":
        "value equality of vectors, which the tests and callers compare by",
    "sparse:SparseVector.__hash__":
        "a vector with __eq__ must hash consistently with it",
    "sparse:SparseVector.__repr__":
        "shows a vector in test failures and at the interpreter prompt",
    "sparse:SparseVector.__setattr__":
        "the immutability guard: vectors are shared between learners after a broadcast",
    "data:save_sparse_text":
        "perfbench writes text-scale's input with it",
}

SYNTHETIC = "d=20,relevant=3,n=100,density=0.3,noise=0.05,seed=1"
EVERY_ALGORITHM = ",".join(cli.valid_algorithm_names())


def argvs(tmp: Path) -> list[tuple[list[str], int]]:
    """The traced invocations, each with the exit code it must return."""
    data = tmp / "data.txt"
    save_sparse_text(generate_synthetic(SyntheticSpec(d=20, n_samples=100, n_relevant=3,
                                                      density=0.3, seed=2))[0], data)
    malformed = tmp / "malformed.txt"
    malformed.write_text("+1 1:0.5\n-1 2:abc\n", encoding="utf-8")
    return [
        (["compare", "--synthetic", "d=40,relevant=6,n=400,density=0.25,noise=0.05,seed=3",
          "--algorithms", "single:PETRUN,single:AROW,MANOFS,MOANOFS",
          "--runs", "3", "--seed", "5", "--tmax", "5", "--k", "3", "--no-timing",
          "--output", str(tmp / "compare.csv")], cli.EXIT_OK),
        (["run", "--dataset", str(data), "--algorithms", EVERY_ALGORITHM,
          "--runs", "1", "--tmax", "5", "--no-timing"], cli.EXIT_OK),
        (["run", "--synthetic", SYNTHETIC, "--algorithms", "MOANOFS",
          "--conflict-rule", "min-utility", "--runs", "1", "--tmax", "5"], cli.EXIT_OK),
        (["recover", "--synthetic", SYNTHETIC.removesuffix(",seed=1"), "--runs", "1",
          "--tmax", "5", "--no-timing"], cli.EXIT_OK),
        (["run", "--synthetic", SYNTHETIC, "--algorithms", "single:PETRUN",
          "--epsilon", "-1"], cli.EXIT_CONFIG),
        (["run", "--dataset", str(malformed), "--algorithms", "single:PETRUN"],
         cli.EXIT_DATASET),
    ]


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects of every frame entered while the argvs run."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits, expected = [], []
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, code in argvs(tmp_path_factory.mktemp("reach")):
            sys.setprofile(record)
            try:
                exits.append(cli.main(argv))
            finally:
                sys.setprofile(previous)
            expected.append(code)
    assert exits == expected
    return frozenset(codes)


def member_functions(owner):
    """The plain functions an owner's namespace holds, unwrapping descriptors."""
    for value in vars(owner).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isfunction(value):
            yield value


def defined_functions() -> dict[object, str]:
    """Each function defined under src/negofs: its code object and its name."""
    found = {}
    for info in pkgutil.iter_modules(negofs.__path__):
        module = importlib.import_module(f"negofs.{info.name}")
        for value in vars(module).values():
            functions = (member_functions(value) if inspect.isclass(value)
                         else [value] if inspect.isfunction(value) else [])
            for f in functions:
                if os.path.realpath(f.__code__.co_filename) in SOURCES:
                    short = f.__module__.rsplit(".", 1)[-1]
                    found.setdefault(f.__code__, f"{short}:{f.__qualname__}")
    return found


def test_the_listing_sees_descriptor_targets_and_skips_generated_methods():
    names = set(defined_functions().values())
    assert {"sparse:SparseVector._trusted", "data:Dataset.__post_init__"} <= names
    assert "data:Dataset.__init__" not in names


def test_member_functions_unwraps_every_descriptor():
    class Owner:
        def method(self):
            pass

        def _get(self):
            pass

        def _set(self, value):
            pass

        value = property(_get, _set)

        @staticmethod
        def static():
            pass

        @classmethod
        def cls(cls):
            pass

    found = {f.__name__ for f in member_functions(Owner)}
    assert found == {"method", "_get", "_set", "static", "cls"}


def test_every_function_is_entered_or_allowlisted(entered):
    unreached = sorted(name for code, name in defined_functions().items()
                       if code not in entered and name not in ALLOWLIST)
    assert not unreached, "no traced argv enters " + ", ".join(unreached)


def test_every_allowlist_entry_exists():
    missing = sorted(set(ALLOWLIST) - set(defined_functions().values()))
    assert not missing, "allowlisted, but not defined under src/negofs: " + ", ".join(missing)


def test_no_allowlisted_function_is_entered(entered):
    reached = sorted(name for code, name in defined_functions().items()
                     if code in entered and name in ALLOWLIST)
    assert not reached, "allowlisted, but a traced argv enters " + ", ".join(reached)
