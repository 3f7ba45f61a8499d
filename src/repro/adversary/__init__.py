"""The red-team adversary subsystem: empirical attacks on the gateway.

PRs 1-8 compute and audit the *static* Theorem 2 leakage bound; this
package measures the *empirical* side of the same claim.  It drives the
``repro serve`` gateway as tenants -- concurrent worker-pool clients,
median-of-N timing, warm-up discard, two-stage candidate promotion, all
on the deterministic virtual clock -- and reports each attack's measured
distinguisher advantage and extracted bits against the victim tenant's
budget, per scheduler policy.  See ``docs/ATTACKS.md`` and the
``repro attack`` subcommand.

The same strategies shape the in-process key attacks, which run against a
victim oracle with no gateway: the S-box prime-and-probe
(:func:`recover_key_byte`) and the RSA weight fit
(:func:`hamming_weight_attack`).
"""

from .attacks import (
    AttackFindings,
    analyze_contention,
    hamming_weight_attack,
    password_crack,
    prefix_crack,
    recover_key_byte,
    rsa_victim,
    sbox_victim,
    tag_forge,
)
from .campaign import (
    SCHEMA,
    CampaignCell,
    CampaignError,
    cell_seed,
    render_campaign,
    run_campaign,
    run_cell,
)
from .engine import (
    ADVERSARY_ID_BASE,
    ContentionSample,
    ContentionSource,
    Probe,
    ProbeSource,
    run_in_process,
    worker_seed,
)
from .registry import (
    REGISTRY,
    AttackRegistry,
    AttackRegistryError,
    AttackSpec,
)

__all__ = [
    "ADVERSARY_ID_BASE",
    "AttackFindings",
    "AttackRegistry",
    "AttackRegistryError",
    "AttackSpec",
    "CampaignCell",
    "CampaignError",
    "ContentionSample",
    "ContentionSource",
    "Probe",
    "ProbeSource",
    "REGISTRY",
    "SCHEMA",
    "analyze_contention",
    "cell_seed",
    "hamming_weight_attack",
    "password_crack",
    "prefix_crack",
    "recover_key_byte",
    "render_campaign",
    "rsa_victim",
    "run_campaign",
    "run_cell",
    "run_in_process",
    "sbox_victim",
    "tag_forge",
    "worker_seed",
]
