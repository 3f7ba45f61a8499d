#!/usr/bin/env python
"""The web-login case study (Sec. 8.3), end to end.

Reproduces the Bortz-Boneh username-probing attack against an unmitigated
login routine, then shows the language-based defense: the type system
pinpoints the leak, the mitigate command closes it, and the attack drops to
chance.  Finally the deployment shape from the paper's Sec. 1 scenario:
the mitigated login behind the multi-tenant serving gateway
(docs/SERVICE.md), many simulated clients, quantized release, and the
cross-tenant leakage audit's verdict.

Run: python examples/web_login.py
"""

from repro.apps.login import (
    CredentialTable,
    LoginSystem,
    login_attempt_times,
    summarize_valid_invalid,
)
from repro.attacks import chance_accuracy, username_probe
from repro.service import audit_service, serve_workload
from repro.typesystem import TypingError, typecheck

TABLE = 40
VALID = 12


def main():
    creds = CredentialTable.generate(size=TABLE, valid=VALID, seed=1)
    validity = [creds.is_valid(i) for i in range(TABLE)]

    # --- The attack on the unmitigated server -----------------------------
    print(f"Credential table: {TABLE} slots, {VALID} valid usernames "
          "(which ones is the secret).\n")
    unmitigated = LoginSystem(table_size=TABLE, mitigated=False)
    times = login_attempt_times(unmitigated, creds, hardware="nopar")
    summary = summarize_valid_invalid(times, creds)
    probe = username_probe(times, validity)
    print("Unmitigated server on commodity hardware (nopar):")
    print(f"  avg login time  valid: {summary['valid']:8.0f} cycles")
    print(f"                invalid: {summary['invalid']:8.0f} cycles")
    print(f"  username probe: {probe.accuracy:.0%} accuracy "
          f"(chance would be {chance_accuracy(times[:VALID], times[VALID:]):.0%})"
          f" -- usernames harvested.\n")

    # --- What the type system says -----------------------------------------
    print("The type system localizes the leak:")
    try:
        typecheck(unmitigated.program, unmitigated.gamma)
    except TypingError as err:
        print(f"  {err}\n")

    # --- The defense --------------------------------------------------------
    mitigated = LoginSystem(table_size=TABLE, mitigated=True)
    budget = mitigated.calibrate_budget(attempts=8, hardware="partitioned")
    print("Mitigated server on partitioned-cache hardware "
          f"(initial prediction {budget} cycles, Sec. 8.2's 110% rule):")
    times = login_attempt_times(mitigated, creds, hardware="partitioned")
    summary = summarize_valid_invalid(times, creds)
    print(f"  avg login time  valid: {summary['valid']:8.0f} cycles")
    print(f"                invalid: {summary['invalid']:8.0f} cycles")
    print(f"  distinct observable times across all attempts: "
          f"{len(set(times))}")
    probe = username_probe(times, validity)
    print(f"  username probe accuracy: {probe.accuracy:.0%} "
          "(no better than guessing the majority class)")
    print("\nLogins still work:",
          "state=1" if mitigated.run(
              creds, creds.usernames[0], creds.passwords[0],
              hardware="partitioned").memory.read("state") == 1
          else "BROKEN")

    # --- The deployment shape: many clients, one gateway --------------------
    print("\nServing it: 60 requests from simulated clients through the")
    print("timing-safe gateway (quantized release, per-tenant mitigation):")
    result = serve_workload({
        "seed": 8,
        "requests": 60,
        "policy": "quantized",
        "quantum": 2048,
        "workers": 2,
        "queue_depth": 8,
        "arrival": {"kind": "closed", "clients": 6, "think": 512},
        "tenants": [
            {"name": "login-a", "app": "login",
             "config": {"table_size": 8}},
            {"name": "login-b", "app": "login",
             "config": {"table_size": 8}},
            {"name": "passwords", "app": "password",
             "config": {"length": 5}},
        ],
    })
    audit = audit_service(result)
    print(f"  {len(result.completed())} completed in {result.makespan} "
          f"cycles ({result.throughput_per_mcycle():.0f} req/Mcycle)")
    for name, tenant in sorted(audit.tenants.items()):
        print(f"  {name}: observed {tenant.observed_bits:.3f} bits <= "
              f"Theorem 2 bound {tenant.bound_bits:.3f} bits"
              + (f"; distinguisher advantage "
                 f"{tenant.probe.result.advantage:+.3f}"
                 if tenant.probe else ""))
    print(f"  Service audit: {'OK' if audit.ok else 'VIOLATED'} -- "
          "no tenant's clients can read another tenant's secrets "
          "from response times.")


if __name__ == "__main__":
    main()
