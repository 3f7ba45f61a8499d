"""Request handlers: the ``apps/`` case studies behind a service facade.

A :class:`Handler` owns one tenant's compiled labeled program plus that
tenant's *secret state* (credential table, stored password, private key,
cipher key) and knows two things:

* how to mint a fresh request payload from the workload RNG
  (:meth:`Handler.new_payload`), tagging it with a ``secret_class`` when
  the payload's *timing-relevant relation to the secret* is meaningful
  (valid vs invalid username, matching vs mismatching guess) -- the
  service audit's distinguisher probes classify observed response times
  by this tag;
* how to execute one request under the full semantics
  (:meth:`Handler.run`), threading through the *tenant-owned*
  :class:`~repro.semantics.mitigation.MitigationState` and the gateway's
  telemetry recorder.

Handlers never share mutable state across tenants: two tenants running the
same app get independent secrets and independent programs, so the only
coupling between them is the gateway's shared clock and queue -- exactly
the channel the scheduler policies are designed to close.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..apps.hashing import fnv1a
from ..apps.login import CredentialTable, LoginSystem, _random_name
from ..apps.password import PasswordChecker
from ..apps.rsa import RsaSystem
from ..apps.rsa_math import encrypt, generate_keypair
from ..apps.sbox_cipher import KEY_LENGTH, SBOX_SIZE, SboxCipher
from ..hardware import MachineEnvironment
from ..lattice import Label, Lattice
from ..semantics.full import ExecutionResult
from ..semantics.mitigation import MitigationState
from ..telemetry.recorder import TraceRecorder


class Payload:
    """One request's handler-specific arguments plus its secret class.

    ``secret_class`` is ``None`` when the payload carries no
    secret-dependent distinction an adversary could classify by (the
    RSA/sbox tenants: the per-tenant key is fixed, so every request
    relates to the secret the same way).
    """

    __slots__ = ("args", "secret_class")

    def __init__(self, args: Mapping[str, Any],
                 secret_class: Optional[str] = None):
        self.args = dict(args)
        self.secret_class = secret_class

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Payload({self.args!r}, secret_class={self.secret_class!r})"


class Handler(ABC):
    """One tenant's application endpoint."""

    #: Registry name (the workload spec's ``app`` field).
    app: str = ""

    def __init__(self, lattice: Lattice, config: Mapping[str, Any]):
        self.lattice = lattice
        self.config = dict(config)

    @property
    def levels(self) -> Tuple[Label, ...]:
        """The varied level set for this tenant's leakage meter (the
        levels whose data the tenant keeps secret)."""
        high = self.lattice["H"] if "H" in self.lattice else self.lattice.top
        return (high,)

    def _int(self, key: str, default: int) -> int:
        value = self.config.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value <= 0:
            raise ValueError(f"handler config {key!r} must be a positive "
                             f"int, got {value!r}")
        return value

    def _bool(self, key: str, default: bool) -> bool:
        value = self.config.get(key, default)
        if not isinstance(value, bool):
            raise ValueError(f"handler config {key!r} must be a bool, "
                             f"got {value!r}")
        return value

    @abstractmethod
    def new_payload(self, rng: random.Random) -> Payload:
        """Mint one request payload from the workload RNG."""

    @abstractmethod
    def run(
        self,
        payload: Payload,
        mitigation: MitigationState,
        recorder: Optional[TraceRecorder],
        hardware: Union[str, MachineEnvironment],
    ) -> ExecutionResult:
        """Execute one request; ``result.time`` is the service duration.
        ``hardware`` is a registry model name or an environment instance,
        used as-is (the gateway passes the tenant's, freshly reset)."""

    def describe(self) -> str:
        """Human-readable handler summary for reports."""
        return self.app


class LoginHandler(Handler):
    """The Sec. 8.3 web login: the tenant's secret is which usernames are
    valid.  Payload classes: ``valid`` / ``invalid`` attempts."""

    app = "login"

    def __init__(self, lattice: Lattice, config: Mapping[str, Any],
                 seed: int):
        super().__init__(lattice, config)
        table_size = self._int("table_size", 8)
        valid = self.config.get("valid", max(1, table_size // 2))
        if not isinstance(valid, int) or isinstance(valid, bool) \
                or not 0 <= valid <= table_size:
            raise ValueError(f"handler config 'valid' must be an int from "
                             f"0 to table_size ({table_size}), got {valid!r}")
        budget = self._int("budget", 1)
        self.system = LoginSystem(
            lattice=lattice, table_size=table_size, mitigated=True,
            budget=budget,
        )
        self.credentials = CredentialTable.generate(
            size=table_size, valid=valid, rng=random.Random(seed)
        )

    def new_payload(self, rng: random.Random) -> Payload:
        if rng.random() < 0.5 and self.credentials.valid:
            index = rng.randrange(self.credentials.valid)
            return Payload(
                {
                    "username": self.credentials.usernames[index],
                    "password": self.credentials.passwords[index],
                },
                secret_class="valid",
            )
        return Payload(
            {"username": _random_name(rng), "password": _random_name(rng)},
            secret_class="invalid",
        )

    def run(self, payload, mitigation, recorder, hardware):
        return self.system.run(
            self.credentials,
            payload.args["username"],
            payload.args["password"],
            hardware=hardware,
            mitigation=mitigation,
            recorder=recorder,
        )


class PasswordHandler(Handler):
    """The early-exit password check: the tenant's secret is the stored
    password.  Payload classes: ``match`` / ``mismatch`` guesses.

    Config knobs beyond ``length``/``budget``: ``alphabet`` bounds the
    symbol range (small alphabets make the red-team crack tractable) and
    ``mitigated: false`` deploys the ill-typed unmitigated program -- the
    vulnerable victim the adversary campaign attacks, whose Theorem 2
    budget is honestly zero bits.
    """

    app = "password"

    def __init__(self, lattice: Lattice, config: Mapping[str, Any],
                 seed: int):
        super().__init__(lattice, config)
        length = self._int("length", 6)
        budget = self._int("budget", 1)
        self.alphabet = self._int("alphabet", 256)
        self.mitigated = self._bool("mitigated", True)
        self.checker = PasswordChecker(
            lattice=lattice, length=length, mitigated=self.mitigated,
            budget=budget,
        )
        secret_rng = random.Random(seed)
        self.stored = [secret_rng.randrange(self.alphabet)
                       for _ in range(length)]

    def new_payload(self, rng: random.Random) -> Payload:
        if rng.random() < 0.4:
            return Payload({"guess": list(self.stored)},
                           secret_class="match")
        # A wrong guess with a random matching prefix: the shape the
        # adaptive prefix attack probes with.
        prefix = rng.randrange(len(self.stored))
        guess = list(self.stored[:prefix])
        while len(guess) < len(self.stored):
            wrong = rng.randrange(self.alphabet)
            if len(guess) == prefix and wrong == self.stored[prefix]:
                wrong = (wrong + 1) % self.alphabet
            guess.append(wrong)
        return Payload({"guess": guess}, secret_class="mismatch")

    def run(self, payload, mitigation, recorder, hardware):
        return self.checker.run(
            self.stored,
            payload.args["guess"],
            hardware=hardware,
            mitigation=mitigation,
            recorder=recorder,
        )


class RsaHandler(Handler):
    """The Sec. 8.4 RSA decryption service: the tenant's secret is the
    private exponent.  Payloads are ciphertexts of random messages."""

    app = "rsa"

    def __init__(self, lattice: Lattice, config: Mapping[str, Any],
                 seed: int):
        super().__init__(lattice, config)
        key_bits = self._int("key_bits", 10)
        blocks = self._int("blocks", 1)
        budget = self._int("budget", 1)
        self.key = generate_keypair(bits=key_bits, seed=seed)
        self.system = RsaSystem(
            lattice=lattice, key_bits=self.key.key_bits, blocks=blocks,
            mitigation_mode="language", budget=budget,
        )
        self.blocks = blocks

    def new_payload(self, rng: random.Random) -> Payload:
        messages = [rng.randrange(2, self.key.n - 1)
                    for _ in range(self.blocks)]
        return Payload(
            {"ciphertext": [encrypt(m, self.key) for m in messages]}
        )

    def run(self, payload, mitigation, recorder, hardware):
        return self.system.run(
            self.key,
            payload.args["ciphertext"],
            hardware=hardware,
            mitigation=mitigation,
            recorder=recorder,
        )


class SboxHandler(Handler):
    """The S-box table-lookup cipher: the tenant's secret is the cipher
    key.  Payloads are random plaintext blocks."""

    app = "sbox"

    def __init__(self, lattice: Lattice, config: Mapping[str, Any],
                 seed: int):
        super().__init__(lattice, config)
        length = self._int("length", 8)
        budget = self._int("budget", 1)
        self.cipher = SboxCipher(
            lattice=lattice, length=length, plaintext_length=length,
            mitigated=True, budget=budget,
        )
        secret_rng = random.Random(seed)
        self.key = [secret_rng.randrange(SBOX_SIZE)
                    for _ in range(KEY_LENGTH)]
        self.length = length

    def new_payload(self, rng: random.Random) -> Payload:
        return Payload(
            {"plaintext": [rng.randrange(SBOX_SIZE)
                           for _ in range(self.length)]}
        )

    def run(self, payload, mitigation, recorder, hardware):
        return self.cipher.run(
            self.key,
            payload.args["plaintext"],
            hardware=hardware,
            mitigation=mitigation,
            recorder=recorder,
        )


class TagHandler(Handler):
    """A keyed-hash tag verifier: the tenant's secret is the MAC key.

    The endpoint authenticates a message by recomputing
    ``fnv1a(message || key)``, rendering it as hex nibbles, and comparing
    against the client-supplied tag nibble by nibble with early exit --
    the oscar230-style insecure compare whose response time reveals the
    length of the matching tag prefix.  Payload classes: ``valid`` (the
    correct tag) / ``forged`` (a random wrong tag).

    Config knobs: ``nibbles`` (tag length, <= 7 since the digest is 31
    bits), ``mitigated`` (wrap the compare in ``mitigate``; ``false``
    deploys the vulnerable program), ``budget``.
    """

    app = "tag"

    #: Bytes of message covered by the tag.
    MESSAGE_LEN = 4

    def __init__(self, lattice: Lattice, config: Mapping[str, Any],
                 seed: int):
        super().__init__(lattice, config)
        self.nibbles = self._int("nibbles", 6)
        if self.nibbles > 7:
            raise ValueError("handler config 'nibbles' must be <= 7 "
                             "(the digest is 31 bits)")
        budget = self._int("budget", 1)
        self.mitigated = self._bool("mitigated", True)
        # The nibble-wise compare is the same early-exit program as the
        # password check, over a 16-symbol alphabet.
        self.checker = PasswordChecker(
            lattice=lattice, length=self.nibbles, mitigated=self.mitigated,
            budget=budget,
        )
        secret_rng = random.Random(seed)
        self.key = [secret_rng.randrange(256) for _ in range(8)]

    def tag_for(self, message: List[int]) -> List[int]:
        """The true tag: hex nibbles of the keyed digest, most
        significant first."""
        digest = fnv1a(list(message) + self.key)
        return [(digest >> (4 * (self.nibbles - 1 - i))) & 0xF
                for i in range(self.nibbles)]

    def new_payload(self, rng: random.Random) -> Payload:
        message = [rng.randrange(256) for _ in range(self.MESSAGE_LEN)]
        true_tag = self.tag_for(message)
        if rng.random() < 0.4:
            return Payload({"message": message, "tag": true_tag},
                           secret_class="valid")
        forged = [rng.randrange(16) for _ in range(self.nibbles)]
        if forged == true_tag:
            forged[0] = (forged[0] + 1) % 16
        return Payload({"message": message, "tag": forged},
                       secret_class="forged")

    def run(self, payload, mitigation, recorder, hardware):
        true_tag = self.tag_for(payload.args["message"])
        return self.checker.run(
            true_tag,
            payload.args["tag"],
            hardware=hardware,
            mitigation=mitigation,
            recorder=recorder,
        )


HANDLERS: Dict[str, type] = {
    cls.app: cls
    for cls in (LoginHandler, PasswordHandler, RsaHandler, SboxHandler,
                TagHandler)
}


def make_handler(app: str, lattice: Lattice, config: Mapping[str, Any],
                 seed: int) -> Handler:
    """Instantiate the handler registered under ``app`` with a
    tenant-specific secret seed."""
    if app not in HANDLERS:
        raise ValueError(
            f"unknown app {app!r}; available: {sorted(HANDLERS)}"
        )
    return HANDLERS[app](lattice, config, seed)
