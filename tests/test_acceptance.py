"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Tolerances are the contract, not aspirations: do not loosen
them to make a change land.
"""
import json
from pathlib import Path

import numpy as np

from qwalklab import (
    ExperimentConfig,
    amplified_norm,
    assoc_generator,
    build_unitary,
    build_walk,
    check_compatibility,
    convolve_functionals,
    error_terms,
    extract_implementing_pair,
    load_bialgebra,
    run_sweep,
    structure_map_from_pair,
    verify_bialgebra,
    verify_error_identity,
    verify_structure_relation,
    vector_state_check,
    write_demo,
)
from qwalklab.bialgebra import bialgebra_to_payload
from qwalklab.convolution import ConvolutionSemigroup
from qwalklab.serialize import write_json
from qwalklab.structure_maps import cp_block_matrix
from qwalklab.walk import gap_map

from .test_structure_maps import triples_for

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "demo_errors.json"
DYADIC_H = tuple(0.25 * 2**-k for k in range(6))


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {description} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def scaled(hs, xi):
    norm_sq = float(np.real(np.vdot(xi, xi)))
    return [h if h * norm_sq <= 1.0 else h / norm_sq for h in hs]


def test_criterion_1_axiom_suite(all_bialgebras, tmp_path):
    worst = 0.0
    for b in all_bialgebras:
        worst = max(worst, verify_bialgebra(b)["max_residual"])
    write_json(tmp_path / "roundtrip.json", bialgebra_to_payload(all_bialgebras[-1]))
    loaded = load_bialgebra(tmp_path / "roundtrip.json")
    worst = max(worst, verify_bialgebra(loaded)["max_residual"])
    report(1, f"bialgebra axiom residuals < 1e-12 (worst {worst:.2e})", worst < 1e-12)


def test_criterion_2_structure_map_equivalence(all_bialgebras):
    worst_rel, worst_rt, count = 0.0, 0.0, 0
    for b in all_bialgebras:
        for triple in triples_for(b):
            phi = structure_map_from_pair(triple, b.counit)
            worst_rel = max(worst_rel, verify_structure_relation(phi, b.counit))
            worst_rt = max(
                worst_rt, extract_implementing_pair(phi, b.counit).roundtrip_residual
            )
            count += 1
    ok = worst_rel < 1e-12 and worst_rt < 1e-10 and count >= 3 * len(all_bialgebras)
    report(
        2,
        f"structure relation/round trip on {count} triples "
        f"(worst {worst_rel:.2e}/{worst_rt:.2e})",
        ok,
    )


def test_criterion_3_walk_step_identities(
    group_z2, z2_sign_triple, group_s3, s3_regular_triple, s3_cp_triple
):
    cases = [
        (group_z2, z2_sign_triple),
        (group_s3, s3_regular_triple),
        (group_s3, s3_cp_triple),
    ]
    worst_unit, worst_ident, worst_state = 0.0, 0.0, 0.0
    for b, triple in cases:
        for h in scaled([0.5, 0.1, 0.01], triple.xi):
            u = build_unitary(triple.xi, h)
            eye = np.eye(u.shape[0])
            worst_unit = max(worst_unit, float(np.max(np.abs(u.conj().T @ u - eye))))
            worst_ident = max(worst_ident, verify_error_identity(triple, b.counit, h))
            if triple.D is None:
                worst_state = max(worst_state, *vector_state_check(triple, b.counit, h))
    ok = worst_unit < 1e-13 and worst_ident < 1e-11 and worst_state < 1e-12
    report(
        3,
        "walk unitarity/error expansion/vector state "
        f"({worst_unit:.2e}/{worst_ident:.2e}/{worst_state:.2e})",
        ok,
    )


def test_criterion_4_generator_convergence(
    group_z2, z2_sign_triple, group_s3, s3_cp_triple
):
    ok = True
    detail = []
    for b, triple in ((group_z2, z2_sign_triple), (group_s3, s3_cp_triple)):
        phi = structure_map_from_pair(triple, b.counit)
        phi1, phi2 = error_terms(triple, b.counit)
        n1, n2 = amplified_norm(phi1), amplified_norm(phi2)
        gaps = []
        for h in DYADIC_H:
            gap = amplified_norm(gap_map(phi, triple, b.counit, h))
            c_h = build_unitary(triple.xi, h)[0, 0].real
            r = h / (1.0 + c_h)
            bound = r * n1 + r**2 * n2
            ok = ok and gap <= bound * (1.0 + 1e-9)
            gaps.append(gap)
        slope = np.polyfit(np.log(DYADIC_H), np.log(gaps), 1)[0]
        ok = ok and 0.9 <= slope <= 1.1
        detail.append(f"{slope:.3f}")
    report(
        4,
        f"generator gap slope 1.0 +/- 0.1 with term bound (slopes {', '.join(detail)})",
        ok,
    )


def test_criterion_5_compatibility(group_z2, z2_sign_triple, group_s3, s3_cp_triple):
    worst = 0.0
    for b, triple, h in (
        (group_z2, z2_sign_triple, 0.2),
        (group_s3, s3_cp_triple, 0.15),
    ):
        psi = build_walk(triple, b.counit, h)
        for n in range(1, 5):
            worst = max(worst, check_compatibility(psi, n))
    report(5, f"composition vs convolution iterates n <= 4 (worst {worst:.2e})", worst < 1e-11)


def test_criterion_6_semigroup_and_first_order(group_z2, z2_sign_triple):
    phi = structure_map_from_pair(z2_sign_triple, group_z2.counit)
    c = np.array([0.6 + 0.0j])
    d = np.array([0.25 + 0.0j])
    lam = assoc_generator(phi, c, d)
    sg = ConvolutionSemigroup(group_z2, lam)
    law = float(
        np.max(np.abs(convolve_functionals(group_z2, sg.at(0.3), sg.at(0.7)) - sg.at(1.0)))
    )

    # lambda_h = eps + h phi_{c,d} + O(h^2): the h^2 remainder must shrink
    # quadratically down a 4-point dyadic sweep
    hs = [0.1 * 2**-k for k in range(4)]
    residuals = []
    for h in hs:
        psi = build_walk(z2_sign_triple, group_z2.counit, h)
        chat = np.concatenate([[1.0], np.sqrt(h) * c])
        dhat = np.concatenate([[1.0], np.sqrt(h) * d])
        lam_h = np.einsum("a,iab,b->i", np.conjugate(chat), psi.mats, dhat)
        residuals.append(float(np.max(np.abs(lam_h - group_z2.counit - h * lam))))
    slope = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
    ok = law < 1e-11 and 1.7 < slope < 2.3
    report(
        6,
        f"semigroup law {law:.2e} and first-order remainder slope {slope:.3f}",
        ok,
    )


def test_criterion_7_end_to_end_convergence(tmp_path):
    with open(FIXTURE_PATH) as fh:
        frozen = json.load(fh)
    ok = True
    ratios = []
    for name in ("c-z2", "group-z2", "group-s3", "custom-file"):
        config = ExperimentConfig.from_file(write_demo(name, tmp_path / name))
        rep = run_sweep(config).report
        errs = [row["max_error"] for row in rep["rows"]]
        ok = ok and [row["h"] for row in rep["rows"]] == list(DYADIC_H)
        ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and errs[-1] <= 1e-2 * errs[0]
        ratios.append(errs[0] / errs[-1])
        table = frozen[name]
        ok = ok and np.allclose(errs, table["max_error"], rtol=1e-9, atol=0)
        ok = ok and np.allclose(
            [row["generator_gap"] for row in rep["rows"]],
            table["generator_gap"],
            rtol=1e-9,
            atol=0,
        )
        for row, frozen_errors in zip(rep["rows"], table["errors"]):
            ok = ok and sorted(row["errors"]) == sorted(frozen_errors)
            ok = ok and all(
                np.isclose(row["errors"][k], frozen_errors[k], rtol=1e-9, atol=0)
                for k in row["errors"]
            )
    report(
        7,
        "demo errors strictly decreasing, final <= 1e-2 x initial, fixtures match "
        f"(ratios {', '.join(f'{r:.0f}' for r in ratios)})",
        ok,
    )


def test_criterion_8_homomorphic_preunital(
    group_z2, z2_sign_triple, group_s3, s3_regular_triple, s3_cp_triple
):
    worst_hom = 0.0
    for b, triple in ((group_z2, z2_sign_triple), (group_s3, s3_regular_triple)):
        for h in scaled(DYADIC_H, triple.xi):
            psi = build_walk(triple, b.counit, h)
            hom = np.max(
                np.abs(
                    np.einsum("iab,jbc->ijac", psi.mats, psi.mats)
                    - np.einsum("ijk,kac->ijac", b.mult, psi.mats)
                )
            )
            star = np.max(
                np.abs(
                    np.conjugate(np.swapaxes(psi.mats, 1, 2))
                    - np.einsum("ij,jab->iab", b.invol, psi.mats)
                )
            )
            worst_hom = max(worst_hom, float(hom), float(star))
    worst_choi, worst_unit = 0.0, 0.0
    for h in scaled(DYADIC_H, s3_cp_triple.xi):
        psi = build_walk(s3_cp_triple, group_s3.counit, h)
        block = cp_block_matrix(psi)
        min_eig = float(np.linalg.eigvalsh((block + block.conj().T) / 2)[0])
        worst_choi = min(worst_choi, min_eig)
        worst_unit = max(worst_unit, float(np.max(np.abs(psi.at_unit() - np.eye(psi.dim)))))
    ok = worst_hom < 1e-12 and worst_choi >= -1e-10 and worst_unit < 1e-14
    report(
        8,
        "walk steps stay homomorphic (D absent) / CP preunital (D present) "
        f"({worst_hom:.2e}/{worst_choi:.2e}/{worst_unit:.2e})",
        ok,
    )
