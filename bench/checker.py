"""Independent release checker: numpy only, no tcmicro code.

It checks what a release actually publishes. The equivalence classes are the
groups of rows with identical QI cells, whatever the release's own cluster_id
column says, and t-closeness is judged on those classes as Li, Li &
Venkatasubramanian define it (ICDE 2007).
"""

from __future__ import annotations

import hashlib

import numpy as np

EMD_SLACK = 1e-9
MEAN_RTOL = 1e-9


def read_roles(path) -> dict[str, str]:
    """Parse a 'column=role' file into {column: role}."""
    roles = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, role = (part.strip() for part in line.split("=", 1))
                roles[name] = role
    return roles


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a comma-separated file with a header row."""
    with open(path, encoding="utf-8") as fh:
        header = [h.strip() for h in fh.readline().strip().split(",")]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    return header, rows


def equivalence_classes(qi: np.ndarray) -> list[np.ndarray]:
    """Row indices of each group of identical QI rows, each ascending."""
    _, inverse, counts = np.unique(qi, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(inverse.reshape(-1), kind="stable")
    return np.split(order, np.cumsum(counts)[:-1])


def class_emds(conf: np.ndarray, classes: list[np.ndarray]) -> np.ndarray:
    """Ordered EMD of each class's confidential values against the whole
    column, on the column's distinct-value support: the mean absolute
    difference of the two cumulative distributions, over m - 1 steps."""
    support, ranks = np.unique(conf, return_inverse=True)
    m = support.size
    if m == 1:
        return np.zeros(len(classes))
    table_cdf = np.cumsum(np.bincount(ranks, minlength=m)) / conf.size
    out = np.empty(len(classes))
    for i, members in enumerate(classes):
        cdf = np.cumsum(np.bincount(ranks[members], minlength=m)) / members.size
        out[i] = np.abs(cdf - table_cdf).sum() / (m - 1)
    return out


def fingerprint(classes: list[np.ndarray]) -> str:
    """SHA-256 of the sorted cluster memberships, independent of labels."""
    h = hashlib.sha256()
    for members in sorted(classes, key=lambda c: int(c[0])):
        h.update(np.asarray(members, dtype="<i8").tobytes())
        h.update(b";")
    return h.hexdigest()


def check_release(input_csv, roles_path, release_csv, k: int, t: float):
    """Check one release against its input. Returns (problems, classes):
    a list of human-readable failures, empty when the release is valid, and
    the published equivalence classes."""
    roles = read_roles(roles_path)
    in_header, original = read_csv(input_csv)
    out_header, release = read_csv(release_csv)
    if out_header != in_header + ["cluster_id"]:
        return [f"release header {out_header} is not input header {in_header} + cluster_id"], []
    if release.shape != (original.shape[0], original.shape[1] + 1):
        return [f"release has shape {release.shape}, input has {original.shape}"], []

    qi_cols = [i for i, name in enumerate(in_header) if roles[name] == "qi"]
    conf_col = next(i for i, name in enumerate(in_header) if roles[name] == "confidential")
    problems = []

    conf = original[:, conf_col]
    changed = np.flatnonzero(release[:, conf_col] != conf)
    if changed.size:
        problems.append(f"confidential column differs from the input in {changed.size} rows, "
                        f"first at row {changed[0]}")

    qi = release[:, qi_cols]
    classes = equivalence_classes(qi)
    sizes = np.array([c.size for c in classes])
    if sizes.min() < k:
        small = int(np.argmin(sizes))
        problems.append(f"k-anonymity: class with QI {qi[classes[small][0]].tolist()} "
                        f"has {sizes[small]} < {k} rows")

    orig_qi = original[:, qi_cols]
    tol = MEAN_RTOL * max(1.0, float(np.abs(orig_qi).max()))
    for members in classes:
        mean = orig_qi[members].mean(axis=0)
        if np.abs(qi[members] - mean).max() > tol:
            problems.append(f"QI cells of the class at row {members[0]} are not the class "
                            f"mean {mean.tolist()} of the original QIs")
            break

    emds = class_emds(conf, classes)
    worst = int(np.argmax(emds))
    if emds[worst] > t + EMD_SLACK:
        bad = int((emds > t + EMD_SLACK).sum())
        problems.append(f"t-closeness: {bad} published classes exceed t={t}; worst EMD "
                        f"{emds[worst]:.6f} for the class at row {classes[worst][0]}")
    return problems, classes
