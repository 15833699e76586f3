"""Digests of the exact chain's probabilities, to compare across interpreters.

    python tests/engine_bits.py

runs the numpy-free engine modules (`fock`, `optics`, `attack`, `source`,
`security`) without the package's `__init__`, so any Python the package
supports can run it without numpy.  It prints the number of click
branches and two digests: `clicks`, over the kinds and probabilities of the
four-channel `joint_threshold_branches` of every split-attack branch (3
attempts) of the SPDC source at tanh_xi 0.1-0.7 and n_max 2/4/6 in every
basis pair, and `all`, over those and the norms, split, QBER and
eavesdropper-state probabilities of the same states.  Every supported
interpreter must print the same line after its version: the engine adds
floats left to right (`fock.left_sum`), never with sum(), which Python 3.12
made a compensated sum.
"""

import hashlib
import sys
import types
from pathlib import Path

package = types.ModuleType("spdcqkd")
package.__path__ = [str(Path(__file__).resolve().parent.parent / "src" / "spdcqkd")]
sys.modules["spdcqkd"] = package

from spdcqkd import attack, optics, security, source  # noqa: E402
from spdcqkd.fock import attack_registry  # noqa: E402


def main() -> None:
    bases = (optics.HV, optics.DA)
    clicks = hashlib.sha256()
    every = hashlib.sha256()
    count = 0
    for tanh_xi in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        for n_max in (2, 4, 6):
            params = source.SpdcParams(tanh_xi, n_max=n_max)
            every.update(source.squared_norm_truncated(params).hex().encode())
            state = source.spdc_state(params).embed(attack_registry()).normalized()
            every.update(state.norm_sq().hex().encode())
            for a in bases:
                for b in bases:
                    q = security.qber_from_state(state, a, b)
                    every.update(f"{q.qber.hex()} {q.sift_probability.hex()}".encode())
            for prob, branch in attack.split_attack_branches(state, attack.AttackConfig(3)):
                every.update(prob.hex().encode())
                for a in bases:
                    for b in bases:
                        channels = [("A", a), ("B", b), ("E1", a), ("E2", a)]
                        for kinds, p, _ in optics.joint_threshold_branches(branch, channels):
                            clicks.update(f"{tuple(map(int, kinds))} {p.hex()}\n".encode())
                            count += 1
    four = attack.attack_four_photon()
    for a in bases:
        for b in bases:
            for key, branch in sorted(security.eve_conditional_states(four, a, b).items()):
                every.update(f"{key} {branch.probability.hex()}".encode())
    every.update(clicks.digest())
    print(sys.version.split()[0], count, "clicks", clicks.hexdigest()[:16],
          "all", every.hexdigest()[:16])


if __name__ == "__main__":
    main()
