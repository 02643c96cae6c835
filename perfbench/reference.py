"""Reference values and output checks that share no code with coherence_kit.

Every expected number is recomputed here from the input the benchmark wrote
(or regenerated from its seed) with numpy alone, so a check can fail when the
program under test is wrong. Each ``check_*`` function takes the exit code of
a call and its parsed output and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import copy
import math

import numpy as np

C_TR_RTOL = 1e-12  # closed form against closed form: same formula, same doubles
SUM_ATOL = 1e-12  # a nearest state is a probability vector
REGEN_ATOL = 1e-15  # a written amplitude against its regeneration from the seed
# The dense paths of the program form n x n matrices and sum n^2 entries or
# take a full spectrum; at n = 1000 their rounding stays far below these.
DENSE_RTOL = 1e-9
ENTROPY_ATOL = 1e-7
MIXED_ATOL = 1e-9
SCHMIDT_RTOL = 1e-10
MARGIN_ATOL = 1e-10  # the certificate's own default slack

EXIT_OK = 0
EXIT_CERTIFICATE = 2


# --- inputs -----------------------------------------------------------------


def gaussian_pure(n: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized i.i.d. standard complex Gaussian vector, the `random --kind pure` recipe."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def regenerate_random_pure(seed: int, n: int) -> np.ndarray:
    """The amplitudes `random --kind pure --n n --seed seed` must write."""
    return gaussian_pure(n, np.random.default_rng(seed))


def gaussian_mixed(n: int, rng: np.random.Generator) -> np.ndarray:
    """G G^dagger / tr for a square complex Gaussian G, made exactly Hermitian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def gaussian_bipartite(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return z / np.linalg.norm(z)


def pairs(values: np.ndarray) -> list:
    """Complex entries as [re, im] pairs of Python floats (exact under json)."""
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def state_doc(kind: str, data: np.ndarray) -> dict:
    arr = np.asarray(data)
    if kind == "incoherent":
        return {"kind": kind, "dims": [arr.shape[0]], "data": arr.astype(float).tolist()}
    dims = [arr.shape[0]] if kind in ("pure", "mixed") else list(arr.shape)
    return {"kind": kind, "dims": dims, "data": pairs(arr)}


def doc_complex(doc: dict) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


# --- closed forms -----------------------------------------------------------


def closed_form(amplitudes: np.ndarray) -> dict:
    """k, c_tr and the nearest weights by a full sort and a scan of every breakpoint."""
    moduli = np.abs(np.asarray(amplitudes, dtype=complex))
    moduli = moduli / math.sqrt(float(moduli @ moduli))
    order = np.argsort(-moduli, kind="stable")
    x = moduli[order]
    x = x[x > 0.0]
    ell = np.arange(1, x.size + 1, dtype=float)
    s = np.cumsum(x)
    m = np.append(np.cumsum((x * x)[::-1])[::-1][1:], 0.0)
    p = s * s - 1.0 - ell * m
    disc = np.sqrt(p * p + 4.0 * ell * m * s * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(p >= 0.0, (p + disc) / (2.0 * ell * s), 2.0 * m * s / (disc - p))
    hits = np.flatnonzero(x > q)
    k = int(hits[-1]) + 1 if hits.size else 1
    qk, sk, mk = float(q[k - 1]), float(s[k - 1]), float(m[k - 1])
    weights = np.zeros(moduli.size)
    weights[order[:k]] = (x[:k] - qk) / (sk - k * qk)
    return {
        "n": int(moduli.size),
        "k": k,
        "support": int(x.size),
        "c_tr": 2.0 * (qk * sk + mk),
        "weights": weights,
    }


def shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p @ np.log2(p)))


def pure_measures(amplitudes: np.ndarray) -> dict:
    """C_l1 = (sum |x_j|)^2 - 1, C_r = H(|x_j|^2), robustness = C_l1, and c_tr."""
    moduli = np.abs(amplitudes)
    l1 = float(np.sum(moduli)) ** 2 - 1.0
    return {"l1": l1, "rel-ent": shannon_bits(moduli * moduli), "robustness": l1,
            "tr": closed_form(amplitudes)}


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(matrix)).sum())


def mixed_measures(rho: np.ndarray) -> dict:
    diag = np.real(np.diag(rho))
    eig = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    return {
        "rho": rho,
        "l1": float(np.abs(rho).sum() - np.abs(diag).sum()),
        "rel-ent": max(0.0, shannon_bits(np.clip(diag, 0.0, 1.0)) - shannon_bits(eig)),
        # The oracle starts from diag(rho) and keeps its best iterate.
        "tr_start": trace_norm(rho - np.diag(diag)),
    }


def schmidt_reference(amplitudes: np.ndarray) -> dict:
    lam = np.linalg.svd(amplitudes, compute_uv=False)
    lam = lam / math.sqrt(float(lam @ lam))
    sq = lam * lam
    return {
        "lambda": lam,
        "e_tr": closed_form(lam)["c_tr"],
        "negativity": (float(np.sum(lam)) ** 2 - 1.0) / 2.0,
        "e_r": shannon_bits(sq),
    }


# --- checks -----------------------------------------------------------------


def _rel_err(got, want: float) -> float:
    return abs(float(got) - want) / max(abs(want), 1e-300)


def _num(x) -> bool:
    # Reports print floats at 17 digits, so an exact 0.0 reads back as the int 0.
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(problems: list, what: str, got, want: float, rtol: float) -> None:
    if not _num(got):
        problems.append(f"{what}: expected a number, got {got!r}")
    elif _rel_err(got, want) > rtol:
        problems.append(f"{what} = {got!r}, reference {want!r} (rtol {rtol:g})")


def _exit(problems: list, code: int, want: int) -> None:
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


def _weights(nearest, n: int) -> np.ndarray | None:
    """Dense weights from a dense list or a sparse {support, weights} object."""
    if isinstance(nearest, dict):
        support = np.asarray(nearest.get("support", []), dtype=int)
        weights = np.asarray(nearest.get("weights", []), dtype=float)
        if support.shape != weights.shape or (support.size and (
                support.min() < 0 or support.max() >= n
                or np.unique(support).size != support.size)):
            return None
        dense = np.zeros(n)
        dense[support] = weights
        return dense
    if isinstance(nearest, list) and len(nearest) == n:
        return np.asarray(nearest, dtype=float)
    return None


def _check_nearest_weights(problems: list, what: str, nearest, ref: dict) -> None:
    weights = _weights(nearest, ref["n"])
    if weights is None:
        problems.append(f"{what}: not a weight vector of length {ref['n']}")
        return
    if float(weights.min()) < 0.0:
        problems.append(f"{what}: negative weight {float(weights.min())!r}")
    total = math.fsum(weights.tolist())
    if abs(total - 1.0) > SUM_ATOL:
        problems.append(f"{what}: weights sum to {total!r}")
    if int(np.count_nonzero(weights)) != ref["k"]:
        problems.append(f"{what}: {int(np.count_nonzero(weights))} positive weights, k = {ref['k']}")


def check_state_file(code: int, doc, amplitudes: np.ndarray) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    if not isinstance(doc, dict) or doc.get("kind") != "pure" or doc.get("dims") != [amplitudes.size]:
        return problems + ["state file is not a pure document of the requested size"]
    written = doc_complex(doc)
    gap = float(np.max(np.abs(written - amplitudes)))
    if gap > REGEN_ATOL:
        problems.append(f"amplitudes differ from the seeded regeneration by {gap:.3e}")
    return problems


def check_nearest(code: int, report, ref: dict) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    if not isinstance(report, dict):
        return problems + ["no report"]
    if report.get("k") != ref["k"]:
        problems.append(f"k = {report.get('k')!r}, reference {ref['k']}")
    _close(problems, "c_tr", report.get("c_tr"), ref["c_tr"], C_TR_RTOL)
    _close(problems, "operator_norm_distance", report.get("operator_norm_distance"),
           ref["c_tr"] / 2.0, C_TR_RTOL)
    _check_nearest_weights(problems, "nearest", report.get("nearest"), ref)
    return problems


def _states(report, count: int) -> list | None:
    states = report.get("states") if isinstance(report, dict) else None
    return states if isinstance(states, list) and len(states) == count else None


def check_pure_measures(code: int, report, ref: dict) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    states = _states(report, 1)
    if states is None:
        return problems + ["report does not hold exactly one state"]
    values = states[0].get("values", {})
    _close(problems, "l1", values.get("l1"), ref["l1"], DENSE_RTOL)
    _close(problems, "robustness", values.get("robustness"), ref["robustness"], DENSE_RTOL)
    got = values.get("rel-ent")
    if not _num(got) or abs(got - ref["rel-ent"]) > ENTROPY_ATOL:
        problems.append(f"rel-ent = {got!r}, reference {ref['rel-ent']!r}")
    tr = values.get("tr")
    if not isinstance(tr, dict):
        return problems + ["no tr entry"]
    if tr.get("k") != ref["tr"]["k"]:
        problems.append(f"tr.k = {tr.get('k')!r}, reference {ref['tr']['k']}")
    _close(problems, "tr.value", tr.get("value"), ref["tr"]["c_tr"], C_TR_RTOL)
    _check_nearest_weights(problems, "tr.nearest", tr.get("nearest"), ref["tr"])
    return problems


def check_mixed_measures(code: int, report, refs: list[dict], max_iters: int) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    states = _states(report, len(refs))
    if states is None:
        return problems + [f"report does not hold {len(refs)} states"]
    for i, (entry, ref) in enumerate(zip(states, refs)):
        values = entry.get("values", {})
        _close(problems, f"states[{i}].l1", values.get("l1"), ref["l1"], 1e-12)
        got = values.get("rel-ent")
        if not _num(got) or abs(got - ref["rel-ent"]) > MIXED_ATOL:
            problems.append(f"states[{i}].rel-ent = {got!r}, reference {ref['rel-ent']!r}")
        tr = values.get("tr")
        if not isinstance(tr, dict) or not _num(tr.get("value")):
            problems.append(f"states[{i}]: no tr value")
            continue
        n = ref["rho"].shape[0]
        nearest = _weights(tr.get("nearest"), n)
        if nearest is None or float(nearest.min()) < 0.0 or abs(math.fsum(nearest) - 1.0) > SUM_ATOL:
            problems.append(f"states[{i}].tr.nearest is not a probability vector")
            continue
        value = tr["value"]
        if not 0.0 <= value <= ref["tr_start"] * (1.0 + 1e-12):
            problems.append(f"states[{i}].tr.value {value!r} outside [0, {ref['tr_start']!r}]")
        attained = trace_norm(ref["rho"] - np.diag(nearest))
        if abs(attained - value) > MIXED_ATOL:
            problems.append(f"states[{i}].tr.value {value!r} but its nearest attains {attained!r}")
        if not isinstance(tr.get("iterations"), int) or not 1 <= tr["iterations"] <= max_iters:
            problems.append(f"states[{i}].tr.iterations = {tr.get('iterations')!r}")
    return problems


def check_verify(code: int, report, expect_optimal: bool) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK if expect_optimal else EXIT_CERTIFICATE)
    cert = report.get("certificate") if isinstance(report, dict) else None
    if not isinstance(cert, dict) or not _num(cert.get("margin")):
        return problems + ["no certificate"]
    if cert.get("optimal") is not expect_optimal:
        problems.append(f"certificate.optimal = {cert.get('optimal')!r}, expected {expect_optimal}")
    if (cert["margin"] >= -MARGIN_ATOL) is not expect_optimal:
        problems.append(f"certificate.margin = {cert['margin']!r} contradicts optimal = {expect_optimal}")
    return problems


def check_entanglement(code: int, report, ref: dict) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    if not isinstance(report, dict):
        return problems + ["no report"]
    coeffs = report.get("schmidt_coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != ref["lambda"].size:
        problems.append("schmidt_coefficients has the wrong length")
    elif float(np.max(np.abs(np.asarray(coeffs) - ref["lambda"]))) > SCHMIDT_RTOL:
        problems.append("schmidt_coefficients differ from the SVD reference")
    for key, want in (("e_tr", ref["e_tr"]), ("negativity", ref["negativity"]), ("e_r", ref["e_r"])):
        _close(problems, key, report.get(key), want, SCHMIDT_RTOL)
    bound = report.get("bound_check")
    if not isinstance(bound, dict) or bound.get("holds") is not True:
        problems.append("bound_check.holds is not true")
    return problems


def check_channel(code: int, report, local_dim: int) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    if not isinstance(report, dict):
        return problems + ["no report"]
    if report.get("local_dim") != local_dim:
        problems.append(f"local_dim = {report.get('local_dim')!r}, expected {local_dim}")
    for key in ("incoherent_ok", "fixed_point_ok"):
        if report.get(key) is not True:
            problems.append(f"{key} = {report.get(key)!r}")
    return problems


# --- self-test of the checks ------------------------------------------------


def corruptions(command: str, code: int, output) -> list[tuple[str, int, object]]:
    """Deliberately wrong versions of a correct (exit code, output) pair.

    Each must be rejected by the same check that accepted the original.
    """
    wrong_code = EXIT_CERTIFICATE if code == EXIT_OK else EXIT_OK
    cases = [("wrong exit code", wrong_code, output)]
    bad = copy.copy(output)
    if command == "random":
        bad["data"] = list(bad["data"])
        re, im = bad["data"][0]
        bad["data"][0] = [re + 1e-12, im]
        cases.append(("perturbed amplitude", code, bad))
    elif command == "nearest":
        bad["c_tr"] = bad["c_tr"] * (1.0 + 1e-9)
        cases.append(("perturbed c_tr", code, bad))
    elif command == "measures":
        bad["states"] = copy.deepcopy(bad["states"][:1]) + bad["states"][1:]
        values = bad["states"][0]["values"]
        if isinstance(values["tr"].get("k"), int):
            values["tr"]["value"] *= 1.0 + 1e-9
            cases.append(("perturbed c_tr", code, bad))
        else:
            values["l1"] *= 1.0 + 1e-9
            cases.append(("perturbed l1", code, bad))
    elif command == "verify":
        bad["certificate"] = dict(bad["certificate"], optimal=not bad["certificate"]["optimal"])
        cases.append(("flipped certificate", code, bad))
    elif command == "entanglement":
        bad["e_tr"] = bad["e_tr"] * (1.0 + 1e-9)
        cases.append(("perturbed e_tr", code, bad))
    elif command == "channel-verify":
        bad["fixed_point_ok"] = False
        cases.append(("failed fixed point", code, bad))
    return cases
