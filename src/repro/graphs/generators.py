"""Seeded synthetic labeled-graph generators.

The container has no network, so every dataset in the paper's evaluation
(Table 4's eight graphs, DBIS, and the three pharmacology RDF versions)
is replaced by a deterministic generator that matches the *recorded
statistics shape*: node/edge counts at a configurable ``scale``, the
label-alphabet size, and skewed (power-law) in/out degree so max-degree
hubs exist like in the real graphs. See DESIGN.md section 3 for the
substitution rationale.

Graphs are built driver-side in numpy/pandas (they are at most a few
hundred thousand rows at our scales); callers hand them to Spark with
``Graph.from_pandas`` or to the driver-side kernels as ``AdjGraph``.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

# ----------------------------------------------------------------- datasets

#: Paper Table 4 statistics: |V|, |E|, |Sigma|, plus degree-skew exponents
#: chosen so the scaled graphs show the same hub structure (large D- for
#: JDK/GP/ACMCit-like graphs, flat out-degree for Amazon-like).
DATASET_SPECS: Dict[str, Dict] = {
    "Yeast": dict(V=2361, E=7182, labels=13, a_out=0.35, a_in=0.40),
    "Cora": dict(V=23166, E=91500, labels=70, a_out=0.30, a_in=0.55),
    "Wiki": dict(V=4592, E=119882, labels=120, a_out=0.45, a_in=0.65),
    "JDK": dict(V=6434, E=150985, labels=41, a_out=0.45, a_in=0.95),
    "NELL": dict(V=75492, E=154213, labels=269, a_out=0.60, a_in=0.70),
    "GP": dict(V=144879, E=298564, labels=8, a_out=0.40, a_in=0.90),
    "Amazon": dict(V=554790, E=1788725, labels=82, a_out=0.05, a_in=0.55),
    "ACMCit": dict(V=1462947, E=9671895, labels=72000, a_out=0.50, a_in=0.95),
}

#: Paper Table 4 rows verbatim (for EXPERIMENTS.md side-by-side output).
PAPER_TABLE4 = {
    name: dict(V=s["V"], E=s["E"], labels=s["labels"])
    for name, s in DATASET_SPECS.items()
}
PAPER_TABLE4_DEGREES = {
    "Yeast": (3, 60, 47), "Cora": (4, 104, 376), "Wiki": (26, 294, 1551),
    "JDK": (23, 375, 32507), "NELL": (2, 1011, 1909), "GP": (2, 191, 18553),
    "Amazon": (3, 5, 549), "ACMCit": (7, 809, 938039),
}


def _powerlaw_weights(n: int, alpha: float) -> np.ndarray:
    """Zipf-like sampling weights over ``n`` ranks with exponent ``alpha``."""
    w = 1.0 / np.arange(1, n + 1, dtype="float64") ** alpha
    return w / w.sum()


def _label_pool(n_labels: int, style: str, rng: np.random.Generator) -> List[str]:
    """Label strings. ``style='words'`` yields NELL-ish compound strings so
    edit-distance / Jaro-Winkler label similarity is non-trivial."""
    if style == "plain":
        return [f"L{i}" for i in range(n_labels)]
    stems = ["concept", "item", "agent", "place", "event", "sport", "media", "food"]
    subs = ["animal", "city", "team", "actor", "drug", "tool", "plant", "song",
            "book", "lake", "star", "gene"]
    out = []
    for i in range(n_labels):
        s = stems[int(rng.integers(len(stems)))]
        t = subs[int(rng.integers(len(subs)))]
        out.append(f"{s}:{t}{i % 97}")
    return out


def labeled_powerlaw_pd(
    n_nodes: int,
    n_edges: int,
    n_labels: int,
    *,
    a_out: float = 0.4,
    a_in: float = 0.7,
    label_style: str = "plain",
    label_skew: float = 0.8,
    seed: int = 0,
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """Generate (nodes_pd, edges_pd) for a labeled directed power-law graph.

    Endpoints are drawn independently with Zipf weights over two random
    permutations of the node set (so the out-hubs and in-hubs are
    different nodes); duplicate edges and self-loops are dropped.
    """
    rng = np.random.default_rng(seed)
    pool = _label_pool(n_labels, label_style, rng)
    lw = _powerlaw_weights(n_labels, label_skew)
    labels = rng.choice(np.arange(n_labels), size=n_nodes, p=lw)
    nodes = pd.DataFrame(
        {"id": np.arange(n_nodes, dtype="int64"),
         "label": [pool[i] for i in labels]}
    )
    out_perm = rng.permutation(n_nodes)
    in_perm = rng.permutation(n_nodes)
    m = int(n_edges * 1.35) + 16  # oversample, dedup below
    src = out_perm[rng.choice(n_nodes, size=m, p=_powerlaw_weights(n_nodes, a_out))]
    dst = in_perm[rng.choice(n_nodes, size=m, p=_powerlaw_weights(n_nodes, a_in))]
    e = pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})
    e = e[e.src != e.dst].drop_duplicates().head(n_edges).reset_index(drop=True)
    return nodes, e


def dataset_pd(name: str, *, scale: float = 0.01, seed: int = 7,
               label_style: str = "plain") -> Tuple[pd.DataFrame, pd.DataFrame]:
    """(nodes_pd, edges_pd) of a synthetic stand-in for one of the
    paper's Table-4 datasets."""
    spec = DATASET_SPECS[name]
    n = max(60, int(spec["V"] * scale))
    m = max(n, int(spec["E"] * scale))
    n_labels = max(2, min(spec["labels"], n // 3))
    return labeled_powerlaw_pd(
        n, m, n_labels, a_out=spec["a_out"], a_in=spec["a_in"],
        label_style=label_style, seed=seed + sum(ord(c) for c in name),
    )


# -------------------------------------------------------------------- DBIS

#: Named venues with (area, tier) used for Tables 7-8 ground truth.
#: WWW_1..WWW_3 are near-duplicates of WWW (the paper's DBIS quirk).
NAMED_VENUES: List[Tuple[str, str, int]] = [
    ("WWW", "WEB", 1), ("WWW_1", "WEB", 1), ("WWW_2", "WEB", 1), ("WWW_3", "WEB", 1),
    ("CIKM", "WEB", 2), ("SIGIR", "IR", 1), ("WSDM", "WEB", 2), ("WISE", "WEB", 3),
    ("Hypertext", "WEB", 3), ("ICDE", "DB", 1), ("VLDB", "DB", 1), ("SIGMOD", "DB", 1),
    ("EDBT", "DB", 2), ("CIDR", "DB", 2), ("SIGKDD", "DM", 1), ("ICDM", "DM", 2),
    ("SDM", "DM", 2), ("PAKDD", "DM", 3), ("ECIR", "IR", 2), ("TREC", "IR", 3),
    ("AAAI", "AI", 1), ("IJCAI", "AI", 1), ("ECAI", "AI", 2), ("ICML", "AI", 1),
    ("ICSE", "SE", 1), ("FSE", "SE", 1), ("ASE", "SE", 2), ("INFOCOM", "NET", 1),
    ("SIGCOMM", "NET", 1), ("CHI", "HCI", 1),
]

SUBJECT_VENUES = ["WWW", "SIGIR", "ICDE", "VLDB", "SIGMOD", "SIGKDD", "ICDM",
                  "CIKM", "AAAI", "ICML", "ICSE", "INFOCOM", "CHI", "WSDM", "SDM"]


def dbis_like_pd(
    *, n_venues: int = 60, n_papers: int = 600, n_authors: int = 450, seed: int = 11
) -> Tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Pandas (nodes, edges, venues) for the DBIS-like graph.

    Structure mirrors DBIS: ``author -> paper -> venue`` edges; venues
    labeled ``V``, papers ``P``, authors by (distinct) name.

    The WWW duplicates reproduce the dataset's quirk (the same venue
    recorded under several node ids, naturally similar to WWW): each
    duplicate holds an *era* slice of the WWW paper stream with its own
    era author community (small cross-era spillover), while general
    WEB-area authors publish across the other WEB venues. So the
    duplicates share WWW's structural shape (similar paper counts and
    author profiles) but few concrete co-authors — structural measures
    (FSim_bj) can surface them where author-overlap meta-path measures
    cannot, which is exactly the paper's Table-7 story.
    """
    rng = np.random.default_rng(seed)
    named = NAMED_VENUES[: min(len(NAMED_VENUES), n_venues)]
    areas = sorted({a for _, a, _ in named})
    venues = [(f"v{i}", n, a, t) for i, (n, a, t) in enumerate(named)]
    for i in range(len(named), n_venues):
        venues.append((f"v{i}", f"Conf{i}", areas[int(rng.integers(len(areas)))], 3))
    vdf = pd.DataFrame(venues, columns=["key", "name", "area", "tier"])

    # node id layout: venues [0, nv), papers [nv, nv+np), authors after.
    nv = len(vdf)
    vdf["id"] = np.arange(nv, dtype="int64")
    www_ids = vdf[vdf.name.str.startswith("WWW")].id.to_numpy()
    # Venue sizes are *area-characteristic* (fields have typical venue
    # scales, modulated by tier), so structural size similarity carries
    # an area signal — and the WWW duplicates get identical targets,
    # making them exact structural twins of WWW.
    area_base = {a: 4 + 2 * (i % 4) for i, a in enumerate(areas)}
    tier_f = {1: 1.5, 2: 1.0, 3: 0.7}
    targets = []
    for vid, area, tier, name in zip(vdf.id, vdf.area, vdf.tier, vdf.name):
        base = area_base[area] * tier_f[tier]
        jitter = 0.0 if name.startswith("WWW") else float(rng.normal(0, 1))
        targets.append(max(2.0, base + jitter))
    targets = np.array(targets)
    targets = np.maximum(2, np.round(targets * n_papers / targets.sum()))
    paper_venue = np.repeat(vdf.id.to_numpy(), targets.astype(int))[:n_papers]
    n_papers = len(paper_venue)
    paper_ids = np.arange(nv, nv + n_papers, dtype="int64")
    area_of_venue = dict(zip(vdf.id, vdf.area))
    paper_area = [area_of_venue[int(v)] for v in paper_venue]
    # era of each paper: the WWW-family index, or -1 for everything else
    www_pos = {int(v): k for k, v in enumerate(www_ids)}
    paper_era = np.array([www_pos.get(int(v), -1) for v in paper_venue])

    author_ids = np.arange(nv + n_papers, nv + n_papers + n_authors, dtype="int64")
    author_area = [areas[int(i)] for i in rng.integers(len(areas), size=n_authors)]
    by_area_authors: Dict[str, List[int]] = {a: [] for a in areas}
    for aid, aa in zip(author_ids, author_area):
        by_area_authors[aa].append(int(aid))
    # WEB authors split into per-era communities (the WWW duplicates'
    # author base) plus a general-WEB pool
    era_authors: Dict[int, List[int]] = {k: [] for k in range(len(www_ids))}
    general_web_authors: List[int] = []
    for aid in by_area_authors.get("WEB", []):
        if len(www_ids) and rng.random() < 0.6:
            era_authors[int(rng.integers(len(www_ids)))].append(aid)
        else:
            general_web_authors.append(aid)
    # per-area collaboration norms: papers of different areas have
    # characteristically different author counts. This is a *structural*
    # area signal that bj's injective (count-sensitive) matching sees
    # while co-author-overlap measures cannot.
    area_typ = {a: 1 + (i % 4) for i, a in enumerate(areas)}
    all_authors = [int(a) for a in author_ids]
    ap_edges: List[Tuple[int, int]] = []
    for p, pa, e in zip(paper_ids, paper_area, paper_era):
        n_auth = area_typ[pa] + int(rng.integers(0, 2))
        chosen: set = set()
        for _ in range(n_auth):
            r = rng.random()
            if e >= 0:
                if r < 0.88 and era_authors.get(int(e)):
                    pool = era_authors[int(e)]
                elif r < 0.93:
                    # small spillover: a long-term WWW author from
                    # another era (the duplicates share structure, not
                    # community — co-author measures stay blind to them)
                    k2 = int(rng.integers(len(www_ids)))
                    pool = era_authors.get(k2) or all_authors
                else:
                    pool = all_authors
            else:
                if r < 0.85 and (by_area_authors[pa]
                                 if pa != "WEB" else general_web_authors):
                    pool = (by_area_authors[pa] if pa != "WEB"
                            else general_web_authors)
                else:
                    pool = all_authors  # cross-area noise
            chosen.add(int(pool[int(rng.integers(len(pool)))]))
        for a in chosen:
            ap_edges.append((a, int(p)))
    ap_edges = sorted(set(ap_edges))
    # drop authors that ended up with no papers (tidy graph; keeps the
    # candidate-pair space meaningful)
    active = {a for a, _ in ap_edges}
    author_ids = np.array([a for a in author_ids if int(a) in active],
                          dtype="int64")
    n_authors = len(author_ids)

    nodes = pd.DataFrame(
        {
            "id": np.concatenate([vdf.id.to_numpy(), paper_ids, author_ids]),
            "label": (["V"] * nv + ["P"] * n_papers
                      + [f"A{i}" for i in range(n_authors)]),
        }
    )
    pv = pd.DataFrame({"src": paper_ids, "dst": paper_venue})
    ap = pd.DataFrame(ap_edges, columns=["src", "dst"], dtype="int64")
    edges = pd.concat([ap, pv], ignore_index=True).drop_duplicates()
    vmeta = vdf[["id", "name", "area", "tier"]].copy()
    vmeta["venue_area"] = vmeta["area"]
    return nodes, edges, vmeta


# --------------------------------------------------- evolving RDF versions

def evolving_graphs_pd(
    *,
    n_nodes: int = 700,
    n_edges: int = 1500,
    n_labels: int = 8,
    n_versions: int = 3,
    node_growth: float = 0.04,
    edge_growth: float = 0.05,
    seed: int = 23,
) -> List[Tuple[pd.DataFrame, pd.DataFrame]]:
    """Versions G1..Gk of one growing graph (pandas form).

    Mirrors the pharmacology RDF setting of Table 9: each version adds
    nodes and edges on top of the previous one and never renames, so the
    identity map on shared node ids is the alignment ground truth.
    """
    rng = np.random.default_rng(seed)
    nodes, edges = labeled_powerlaw_pd(
        n_nodes, n_edges, n_labels, a_out=0.4, a_in=0.85, seed=seed
    )
    versions = [(nodes, edges)]
    for _ in range(1, n_versions):
        prev_n, prev_e = versions[-1]
        n0 = len(prev_n)
        add_n = max(1, int(n0 * node_growth))
        new_ids = np.arange(n0, n0 + add_n, dtype="int64")
        pool = sorted(prev_n.label.unique())
        new_nodes = pd.DataFrame(
            {"id": new_ids,
             "label": [pool[int(i)] for i in rng.integers(len(pool), size=add_n)]}
        )
        nodes2 = pd.concat([prev_n, new_nodes], ignore_index=True)
        add_m = max(1, int(len(prev_e) * edge_growth))
        # new edges: attach new nodes + a few fresh edges among old nodes,
        # favoring existing in-hubs (preferential attachment).
        indeg = prev_e.dst.value_counts()
        hub_pool = indeg.index.to_numpy()
        hub_w = indeg.to_numpy(dtype="float64")
        hub_w /= hub_w.sum()
        srcs, dsts = [], []
        for i in range(add_m + add_n):
            if i < add_n:  # each new node gets an edge
                s = int(new_ids[i])
                d = int(rng.choice(hub_pool, p=hub_w))
            else:
                s = int(rng.integers(len(nodes2)))
                d = (int(rng.choice(hub_pool, p=hub_w))
                     if rng.random() < 0.7 else int(rng.integers(len(nodes2))))
            if s != d:
                srcs.append(s)
                dsts.append(d)
        new_e = pd.DataFrame({"src": srcs, "dst": dsts}, dtype="int64")
        edges2 = pd.concat([prev_e, new_e], ignore_index=True).drop_duplicates()
        versions.append((nodes2, edges2.reset_index(drop=True)))
    return versions
