"""The web-login case study (Sec. 8.3).

Bortz and Boneh showed adversaries can probe for *valid usernames* through
the timing of a web application's login path: password verification happens
only when the username exists, so valid and invalid attempts take visibly
different time.  The paper reproduces this with a login routine whose
credential table (digests of valid usernames and their passwords) and login
``state`` are secret, while the attempted ``user``/``pass`` and the
``response`` are public -- the response *value* is always 1 on purpose, so
the only channel left is the response's *timing*.

The program built here (in the paper's own source language, via the builder
DSL)::

    uh := fnv1a(user)                        -- public username digest
    found := 0; state := 0; ph := 0; i := 0; k := 0
    mitigate (budget, H) {                   -- omitted when mitigated=False
        while i < N {
            if table[i] == uh {              -- secret table: high guard
                found := 1
                ph := fnv1a(pass)            -- hashing only for valid users:
                if ptable[i] == ph {         -- the Bortz-Boneh channel
                    state := 1
                }
            }
            i := i + 1
        }
    }
    response := 1                            -- public; its timing is the leak

Without the ``mitigate`` the type system rejects the final public assignment
(its timing start-label is H) -- exactly the paper's "type checking fails at
line 11"; with it, the program typechecks and the runtime bounds the leak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..lang import ast
from ..lang.builder import B
from ..lang.parser import DEFAULT_LATTICE
from ..lattice import Lattice
from ..machine.memory import Memory
from ..api import compile_program
from ..hardware import MachineEnvironment, MachineParams
from ..semantics.full import ExecutionResult
from ..semantics.mitigation import MitigationState
from ..telemetry.recorder import TraceRecorder
from ..typesystem.environment import SecurityEnvironment
from ..typesystem.typing import TypingInfo
from .hashing import encode, fnv1a

USERNAME_LENGTH = 8
PASSWORD_LENGTH = 8


@dataclass
class LoginSystem:
    """The login program plus its security environment.

    ``table_size`` is the credential-table capacity ``N``; the secret is
    *which* entries hold digests of real usernames.  ``mitigated`` selects
    between the type-correct program and the leaky baseline (used for the
    ``nopar``/``moff`` measurements -- the baseline is deliberately
    ill-typed, so it is label-inferred but not typechecked).
    """

    lattice: Lattice = field(default_factory=lambda: DEFAULT_LATTICE)
    table_size: int = 100
    mitigated: bool = True
    budget: int = 1

    def __post_init__(self) -> None:
        self.compiled = compile_program(*self._build(), lattice=self.lattice,
                                        check=self.mitigated)
        self.program, self.gamma = self.compiled.program, self.compiled.gamma
        self.typing: Optional[TypingInfo] = (
            self.compiled.typing if self.mitigated else None)

    # -- program construction ----------------------------------------------------

    def _build(self) -> Tuple[ast.Command, SecurityEnvironment]:
        lat = self.lattice
        high = lat["H"] if "H" in lat else lat.top
        b = B(lat)
        v = b.v
        at = b.at

        hash_user = _inline_hash(b, "user", USERNAME_LENGTH, "uh", "j")
        hash_pass = _inline_hash(b, "pass", PASSWORD_LENGTH, "ph", "k")

        password_check = b.if_(
            at("ptable", v("i")) == v("ph"),
            b.assign("state", 1),
        )
        match_body = b.seq(
            b.assign("found", 1),
            hash_pass,
            password_check,
        )
        search_loop = b.while_(
            v("i") < self.table_size,
            b.seq(
                b.if_(at("table", v("i")) == v("uh"), match_body),
                b.assign("i", v("i") + 1),
            ),
        )
        # The initializations write high variables, which raises the timing
        # end-label to H (T-ASGN's end-label is Gamma(x)); they must sit
        # inside the mitigated region, like the paper's high line 1.
        high_block = b.seq(
            b.assign("found", 0),
            b.assign("state", 0),
            b.assign("ph", 0),
            b.assign("i", 0),
            search_loop,
        )
        if self.mitigated:
            high_block = b.mitigate(
                self.budget, high, high_block, mit_id="login_search"
            )

        program = b.seq(
            hash_user,
            high_block,
            b.assign("response", 1),
        )
        gamma = SecurityEnvironment(
            lat,
            {
                "user": lat.bottom,
                "pass": lat.bottom,
                "uh": lat.bottom,
                "j": lat.bottom,
                "response": lat.bottom,
                "table": high,
                "ptable": high,
                "found": high,
                "state": high,
                "ph": high,
                "i": high,
                "k": high,
            },
        )
        return program, gamma

    # -- memory construction ----------------------------------------------------------

    def memory(
        self,
        credentials: "CredentialTable",
        username: str,
        password: str,
    ) -> Memory:
        """Initial memory for one login attempt."""
        return Memory(
            {
                "user": encode(_pad(username, USERNAME_LENGTH)),
                "pass": encode(_pad(password, PASSWORD_LENGTH)),
                "table": credentials.username_digests,
                "ptable": credentials.password_digests,
                "uh": 0,
                "j": 0,
                "ph": 0,
                "k": 0,
                "i": 0,
                "found": 0,
                "state": 0,
                "response": 0,
            }
        )

    def run(
        self,
        credentials: "CredentialTable",
        username: str,
        password: str,
        hardware: Union[str, MachineEnvironment] = "partitioned",
        params: Optional[MachineParams] = None,
        mitigation: Optional[MitigationState] = None,
        max_steps: int = 10_000_000,
        recorder: Optional[TraceRecorder] = None,
    ) -> ExecutionResult:
        """One login attempt; ``result.time`` is the paper's login time.

        Pass a shared :class:`MitigationState` to model a long-running
        server: misprediction counters persist across requests, which is
        what makes the Fig. 7 mitigated curves coincide after the first
        inflation.  A shared ``recorder`` likewise aggregates telemetry
        across a whole attempt stream.
        """
        return self.compiled.run(
            self.memory(credentials, username, password), hardware, params,
            mitigation, max_steps=max_steps, recorder=recorder)

    def calibrate_budget(
        self,
        attempts: int = 10,
        hardware: str = "partitioned",
        params: Optional[MachineParams] = None,
        seed: int = 20120611,
        headroom: float = 1.10,
    ) -> int:
        """Sec. 8.2's initial-prediction policy: sample the running time of
        the mitigated block with randomly generated secrets and return 110%
        of the average.  Returns the budget and rebuilds the program with it.
        """
        rng = random.Random(seed)
        unmitigated = LoginSystem(
            lattice=self.lattice,
            table_size=self.table_size,
            mitigated=False,
        )
        durations = []
        for index in range(attempts):
            creds = CredentialTable.generate(
                size=self.table_size,
                valid=rng.randrange(1, self.table_size + 1),
                rng=rng,
            )
            # Sample both code paths: random secrets mean random usernames
            # sometimes hit the table and sometimes do not.
            if index % 2 == 0:
                username = creds.usernames[0]
                password = creds.passwords[0]
            else:
                username = _random_name(rng)
                password = _random_name(rng)
            result = unmitigated.run(
                creds, username, password, hardware=hardware, params=params
            )
            durations.append(_search_block_elapsed(result))
        budget = int(headroom * sum(durations) / len(durations))
        self.budget = max(budget, 1)
        self.__post_init__()
        return self.budget


def _search_block_elapsed(result: ExecutionResult) -> int:
    """Time the high block took in an unmitigated run, measured from just
    before its first initialization (``found := 0``) to the final
    ``response`` update."""
    events = list(result.events)
    first = next(i for i, e in enumerate(events) if e.name == "found")
    start = events[first - 1].time if first > 0 else 0
    end = next(e.time for e in events if e.name == "response")
    return end - start


def _pad(text: str, length: int) -> str:
    if len(text) > length:
        return text[:length]
    return text + "\0" * (length - len(text))


def _random_name(rng: random.Random, length: int = USERNAME_LENGTH) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(rng.choice(letters) for _ in range(length))


def _inline_hash(b: B, source: str, length: int, digest: str, counter: str):
    from .hashing import hash_loop

    return hash_loop(b, source, length, digest, counter)


@dataclass
class CredentialTable:
    """The secret: which usernames are valid, and their password digests.

    ``username_digests[i]`` is ``fnv1a(username_i)`` for the first ``valid``
    entries and a sentinel (matching no attempt) for the rest;
    ``password_digests`` pairs each valid entry with its password's digest.
    """

    usernames: List[str]
    passwords: List[str]
    valid: int
    username_digests: List[int]
    password_digests: List[int]

    @classmethod
    def generate(
        cls,
        size: int = 100,
        valid: int = 10,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> "CredentialTable":
        """A table with ``valid`` real entries out of ``size`` slots.

        The generated usernames double as the attempt stream for the Fig. 7
        experiment: attempt ``i`` presents ``usernames[i]``, which is valid
        exactly when ``i < valid``.
        """
        rng = rng if rng is not None else random.Random(seed)
        if not 0 <= valid <= size:
            raise ValueError("valid must be between 0 and size")
        usernames = []
        seen = set()
        while len(usernames) < size:
            name = _random_name(rng)
            digest = fnv1a(encode(_pad(name, USERNAME_LENGTH)))
            if digest in seen:
                continue
            seen.add(digest)
            usernames.append(name)
        passwords = [_random_name(rng, PASSWORD_LENGTH) for _ in range(size)]
        username_digests = []
        password_digests = []
        for i in range(size):
            if i < valid:
                username_digests.append(
                    fnv1a(encode(_pad(usernames[i], USERNAME_LENGTH)))
                )
                password_digests.append(
                    fnv1a(encode(_pad(passwords[i], PASSWORD_LENGTH)))
                )
            else:
                # Sentinels: digests of names never attempted.
                while True:
                    sentinel = rng.randrange(1 << 31)
                    if sentinel not in seen:
                        seen.add(sentinel)
                        break
                username_digests.append(sentinel)
                password_digests.append(rng.randrange(1 << 31))
        return cls(
            usernames=usernames,
            passwords=passwords,
            valid=valid,
            username_digests=username_digests,
            password_digests=password_digests,
        )

    def is_valid(self, index: int) -> bool:
        return index < self.valid


def login_attempt_times(
    system: LoginSystem,
    credentials: CredentialTable,
    hardware: str = "partitioned",
    params: Optional[MachineParams] = None,
    correct_password: bool = True,
) -> List[int]:
    """Fig. 7's measurement: login time for each attempt in the stream.

    A single mitigation state persists across attempts, modeling the
    long-running server the paper measures.
    """
    times = []
    mitigation = MitigationState()
    for i, username in enumerate(credentials.usernames):
        password = (
            credentials.passwords[i]
            if correct_password
            else _random_name(random.Random(i), PASSWORD_LENGTH)
        )
        result = system.run(
            credentials, username, password,
            hardware=hardware, params=params, mitigation=mitigation,
        )
        times.append(result.time)
    return times


def summarize_valid_invalid(
    times: List[int], credentials: CredentialTable
) -> Dict[str, float]:
    """Average login time over valid and invalid attempts (Table 2 rows)."""
    valid = [t for i, t in enumerate(times) if credentials.is_valid(i)]
    invalid = [t for i, t in enumerate(times) if not credentials.is_valid(i)]
    return {
        "valid": sum(valid) / len(valid) if valid else float("nan"),
        "invalid": sum(invalid) / len(invalid) if invalid else float("nan"),
    }
