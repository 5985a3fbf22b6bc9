"""Relational operator demonstrations over the TPC-H-ish test tables.

These map the reference's aggregation / facet / sort / filter semantics
(SURVEY.md §2.5, §2.6, §2.8) onto general Dataset operators, and serve as
SQL-oracle-gated coverage of groupby-aggregate, join, top-k and
value-count (facet) shapes.

Scale notes: aggregates pre-combine inside map_batches before the
groupby where it matters; the join broadcasts the small side
(customer) instead of shuffling both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.bucketed import bucketed_apply


def pricing_summary(sf_dir: str):
    """TPC-H Q1-ish pricing summary over lineitem (groupby-aggregate with
    computed columns; all aggregates named for the oracle)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Mean, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def derive(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", disc)

    out = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
    )
    pdf = out.to_pandas().sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    for c in ["sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"]:
        pdf[c] = pdf[c].round(4)
    pdf["count_order"] = pdf["count_order"].astype("int64")
    return pdf


def order_revenue_topk(sf_dir: str, k: int = 10, num_partitions: int = 8):
    """Big-big equi-join: per-order revenue (lineitem groupby-sum with a
    map-side-combined shuffle) hash-joined to orders via Ray Data's
    native ``Dataset.join`` — both sides shuffle by key, no broadcast,
    the shape a 100 TB fact⋈fact join takes.  Top-k by revenue."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    per_order = (li.map_batches(derive, batch_format="pyarrow")
                 .groupby("l_orderkey")
                 .aggregate(Sum("rev", alias_name="revenue")))
    from .dedup import _strip_meta

    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"]))
    joined = per_order.join(orders, join_type="inner",
                            num_partitions=num_partitions,
                            on=("l_orderkey",), right_on=("o_orderkey",))

    def round_rev(t: pa.Table) -> pa.Table:
        return t.set_column(t.column_names.index("revenue"), "revenue",
                            pc.round(t["revenue"], ndigits=4))

    # top-k via distributed sort+limit — only k rows ever reach the
    # driver, never the full per-order table
    top = (joined.map_batches(round_rev, batch_format="pyarrow")
           .sort(["revenue", "l_orderkey"], descending=[True, False])
           .limit(k))
    pdf = top.to_pandas()
    return pdf.reset_index(drop=True)[["l_orderkey", "o_orderpriority", "revenue"]]


def top_customers(sf_dir: str, k: int = 10):
    """orders ⋈ customer (broadcast small side) → top-k by total spend."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust = pd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    cust_ref = ray.put(dict(zip(cust.c_custkey, cust.c_name)))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    agg = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="total_spend"),
        Count(alias_name="n_orders"),
    )

    def attach_name(t: pa.Table) -> pa.Table:
        names = ray.get(cust_ref)
        keys = t["o_custkey"].to_pylist()
        return t.append_column("c_name", pa.array([names.get(kk) for kk in keys], pa.string()))

    out = agg.map_batches(attach_name, batch_format="pyarrow")
    pdf = out.to_pandas()
    pdf["total_spend"] = pdf["total_spend"].round(4)
    pdf["n_orders"] = pdf["n_orders"].astype("int64")
    pdf = pdf.sort_values(["total_spend", "o_custkey"], ascending=[False, True]).head(k)
    return pdf.reset_index(drop=True)[["o_custkey", "c_name", "total_spend", "n_orders"]]


def facet_counts(sf_dir: str, table: str = "events", column: str = "event_type",
                 min_count: int = 1, top_n: int = 50):
    """Facet value counts (reference ``computeFacets`` semantics: count
    desc, min_count filter, top-N — §2.5)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=[column])
    out = ds.groupby(column).aggregate(Count(alias_name="count"))
    pdf = out.to_pandas()
    pdf["count"] = pdf["count"].astype("int64")
    pdf = pdf[pdf["count"] >= min_count]
    pdf = pdf.sort_values(["count", column], ascending=[False, True]).head(top_n)
    return pdf.reset_index(drop=True)


def filter_matrix(sf_dir: str):
    """The reference's filter-operator matrix (§2.8) exercised as
    vectorized Arrow predicates over orders: one row per operator with
    the matching row count."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderstatus", "o_totalprice", "o_orderpriority"])

    def count_where(pred):
        return ds.map_batches(
            lambda t, p=pred: pa.table({"n": pa.array([t.filter(p(t)).num_rows], pa.int64())}),
            batch_format="pyarrow",
        ).sum("n")

    checks = {
        "eq": lambda t: pc.equal(t["o_orderstatus"], "F"),
        "neq": lambda t: pc.not_equal(t["o_orderstatus"], "F"),
        "gt": lambda t: pc.greater(t["o_totalprice"], 100000.0),
        "lte": lambda t: pc.less_equal(t["o_totalprice"], 50000.0),
        "between": lambda t: pc.and_(
            pc.greater_equal(t["o_totalprice"], 50000.0),
            pc.less_equal(t["o_totalprice"], 150000.0),
        ),
        "in": lambda t: pc.is_in(t["o_orderpriority"],
                                 value_set=pa.array(["1-URGENT", "2-HIGH"])),
        "contains": lambda t: pc.match_substring(t["o_orderpriority"], "HIGH"),
        "like_prefix": lambda t: pc.match_like(t["o_orderpriority"], "1-%"),
    }
    rows = [{"op": name, "n": int(count_where(pred))} for name, pred in checks.items()]
    return pd.DataFrame(rows).sort_values("op").reset_index(drop=True)


def multi_index_union(sf_dir: str, k: int = 10):
    """searchMultiple analogue (§2.7): two per-'index' result sets
    (documents split by source parity), tagged with _index, merged,
    sorted by score desc, sliced — expressed as Dataset union + sort."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars", "source"])

    def split_and_tag(name, want_even):
        def fn(t: pa.Table) -> pa.Table:
            srcnum = pc.cast(pc.utf8_slice_codeunits(t["source"], 3, 99), pa.int32())
            parity_mask = pc.equal(pc.bit_wise_and(srcnum, 1), 0 if want_even else 1)
            t2 = t.filter(parity_mask)
            return pa.table({
                "doc_id": t2["doc_id"],
                "score": pc.cast(t2["n_chars"], pa.float64()),
                "_index": pa.array([name] * t2.num_rows, pa.string()),
            })
        return fn

    a = ds.map_batches(split_and_tag("idx_even", True), batch_format="pyarrow")
    b = ds.map_batches(split_and_tag("idx_odd", False), batch_format="pyarrow")
    merged = a.union(b).sort(["score", "doc_id"], descending=[True, False]).limit(k)
    return merged.to_pandas()


def shipping_priority_topk(sf_dir: str, *, segment: str = "BUILDING",
                           cutoff: str = "1998-06-15", k: int = 10,
                           num_partitions: int = 8):
    """TPC-H Q3 shape — the canonical 3-way join a warehouse runs:
    customer(filtered segment, broadcast keyset) ⋈ orders(date filter)
    ⋈ lineitem(date filter, big-big ``Dataset.join``) → groupby revenue
    → distributed top-k.  The customer side broadcasts because a
    segment's keyset is small; orders⋈lineitem hash-shuffles both sides
    (the fact⋈fact shape).  Only k rows reach the driver."""
    import numpy as np
    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cut = pa.scalar(np.datetime64(cutoff, "us"), pa.timestamp("us"))

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    keys = cust.filter(expr=f"c_mktsegment == '{segment}'")\
        .select_columns(["c_custkey"]).to_pandas()
    # sorted array → np.isin takes the searchsorted fast path per batch
    key_ref = ray.put(np.sort(keys["c_custkey"].to_numpy(np.int64)))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def keep_orders(t):
        ks = ray.get(key_ref)
        m1 = pc.less(t["o_orderdate"], cut)
        m2 = pa.array(np.isin(
            t["o_custkey"].to_numpy(zero_copy_only=False), ks), pa.bool_())
        return t.filter(pc.and_(m1, m2)).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
            .replace_schema_metadata(None)

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def derive(t):
        t = t.filter(pc.greater(t["l_shipdate"], cut))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    joined = (li.map_batches(derive, batch_format="pyarrow")
              .join(orders.map_batches(keep_orders, batch_format="pyarrow"),
                    join_type="inner", num_partitions=num_partitions,
                    on=("l_orderkey",), right_on=("o_orderkey",)))
    agg = (joined.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"])
           .aggregate(Sum("rev", alias_name="revenue")))

    def round_rev(t):
        return t.set_column(t.column_names.index("revenue"), "revenue",
                            pc.round(t["revenue"], ndigits=4))

    top = (agg.map_batches(round_rev, batch_format="pyarrow")
           .sort(["revenue", "l_orderkey"], descending=[True, False])
           .limit(k))
    pdf = top.to_pandas()
    return pdf.reset_index(drop=True)[
        ["l_orderkey", "o_orderdate", "o_orderpriority", "revenue"]]


def brand_nation_revenue(sf_dir: str, *, k: int = 20,
                         num_partitions: int = 8):
    """Star join — the warehouse staple: the lineitem FACT table joined
    to three DIMENSIONS (part → brand, supplier → nation, nation →
    name), every dimension broadcast once via ``ray.put`` (dim tables
    are small by definition; no dim ever shuffles), revenue aggregated
    by (brand, nation) with a map-side partial so the exchange moves
    one row per (batch × group).  Top-k by revenue."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    brand_of = dict(zip(part["p_partkey"].to_pylist(),
                        part["p_brand"].to_pylist()))
    natkey_of = dict(zip(supp["s_suppkey"].to_pylist(),
                         supp["s_nationkey"].to_pylist()))
    name_of = dict(zip(nat["n_nationkey"].to_pylist(),
                       nat["n_name"].to_pylist()))
    dims_ref = ray.put((brand_of, natkey_of, name_of))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        # vectorized dim attach (Series.map = C-speed hash lookups) +
        # in-batch combine: this runs on the FACT scan, so no per-row
        # Python; the exchange then moves one row per (batch x group)
        brand_of, natkey_of, name_of = ray.get(dims_ref)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0),
                                      t["l_discount"])).to_numpy()
        df = pd.DataFrame({
            "p_brand": pd.Series(
                t["l_partkey"].to_numpy(zero_copy_only=False)).map(brand_of),
            "n_name": pd.Series(
                t["l_suppkey"].to_numpy(zero_copy_only=False))
            .map(natkey_of).map(name_of),
            "rev": rev,
        })
        g = df.groupby(["p_brand", "n_name"], sort=False,
                       as_index=False)["rev"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)\
            .replace_schema_metadata(None)

    agg = (li.map_batches(partial, batch_format="pyarrow")
           .groupby(["p_brand", "n_name"])
           .aggregate(Sum("rev", alias_name="revenue")))

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(t.column_names.index("revenue"), "revenue",
                            pc.round(t["revenue"], ndigits=4))

    top = (agg.map_batches(finish, batch_format="pyarrow")
           .sort(["revenue", "p_brand", "n_name"],
                 descending=[True, False, False]).limit(k))
    return top.to_pandas().reset_index(drop=True)[
        ["p_brand", "n_name", "revenue"]]


def customers_without_orders(sf_dir: str, *, k: int = 20,
                             priority: str = "1-URGENT",
                             num_partitions: int = 8):
    """Distributed ANTI-join (the NOT EXISTS shape): customers with no
    order of the given priority, via Ray Data's native ``left_anti``
    join — both sides hash-shuffle by key, so neither side needs to fit
    anywhere (the broadcast-keyset trick would cap the right side; this
    does not).  The right side is filtered AT THE SCAN before the
    shuffle.  Returns the first k by custkey, acctbal rounded for the
    oracle."""
    import ray.data as rd
    from .dedup import _strip_meta

    cust = _strip_meta(rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"]))
    orders = _strip_meta(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderpriority"])
        .filter(expr=f"o_orderpriority == '{priority}'")
        .select_columns(["o_custkey"]))
    anti = cust.join(orders, join_type="left_anti",
                     num_partitions=num_partitions,
                     on=("c_custkey",), right_on=("o_custkey",))
    top = anti.sort("c_custkey").limit(k)
    pdf = top.to_pandas().reset_index(drop=True)
    if pdf.empty:
        pdf = pd.DataFrame({"c_custkey": pd.array([], dtype="int64"),
                            "c_name": pd.array([], dtype="string"),
                            "c_acctbal": pd.array([], dtype="float64")})
    pdf["c_acctbal"] = pdf["c_acctbal"].round(4)
    return pdf[["c_custkey", "c_name", "c_acctbal"]]


def grouped_topk(sf_dir: str, *, group_col: str = "source",
                 order_col: str = "n_chars", id_col: str = "doc_id",
                 k: int = 5):
    """Distributed PER-GROUP top-k (the ``row_number() OVER (PARTITION
    BY ...) <= k`` shape) without a global sort: a map-side combiner
    keeps only each batch's per-group top-k (so the shuffle moves at
    most k rows per group per batch), then ``groupby.map_groups``
    finishes the per-group ranking.  Ties break on ascending id for a
    deterministic, oracle-matchable order."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=[id_col, group_col, order_col])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, order_col, id_col],
                                       ascending=[True, False, True])
        out = pa.Table.from_pandas(df.groupby(group_col, sort=False).head(k),
                                   preserve_index=False)
        # pandas metadata makes block schemas unhashable in the shuffle
        return out.replace_schema_metadata(None)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([order_col, id_col], ascending=[False, True])
             .head(k).reset_index(drop=True))
        g["grp_rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(group_col).map_groups(final, batch_format="pandas"))
    pdf = out.to_pandas().sort_values([group_col, "grp_rank"])
    pdf["grp_rank"] = pdf["grp_rank"].astype("int64")
    return pdf.reset_index(drop=True)[[group_col, id_col, order_col,
                                       "grp_rank"]]


def priority_line_counts(sf_dir: str, *, num_partitions: int = 8):
    """TPC-H Q12-shape conditional aggregation over a big-big join:
    per lineitem return flag, how many lines belong to high-priority
    orders (1-URGENT / 2-HIGH) vs everything else.

    Distributed shape: both fact tables are column-pruned at the scan,
    hash-joined on the order key with Ray Data's native ``Dataset.join``
    (both sides shuffle — the fact⋈fact shape a broadcast can't take),
    the CASE WHEN collapses to 0/1 int columns map-side immediately
    after the join, and the final groupby moves 3 keys x partials.
    Columns (l_returnflag, high_line_count, low_line_count)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _strip_meta

    li = _strip_meta(rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                                     columns=["l_orderkey", "l_returnflag"]))
    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]))
    joined = li.join(orders, join_type="inner",
                     num_partitions=num_partitions,
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def flags(t: pa.Table) -> pa.Table:
        hi = pc.is_in(t["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        hi64 = pc.cast(hi, pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "high": hi64,
            "low": pc.subtract(pa.scalar(1, pa.int64()), hi64),
        })

    out = (joined.map_batches(flags, batch_format="pyarrow")
           .groupby("l_returnflag")
           .aggregate(Sum("high", alias_name="high_line_count"),
                      Sum("low", alias_name="low_line_count"))
           .to_pandas())
    for c in ("high_line_count", "low_line_count"):
        out[c] = out[c].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def group_percentiles(sf_dir: str, *, table: str = "documents",
                      group_col: str = "lang", value_col: str = "n_chars",
                      qs=(0.25, 0.5, 0.75, 0.95)):
    """Per-group ``percentile_disc`` (the ES percentiles-sub-aggregation
    shape, exact): for each group, the 1-indexed rank ``ceil(q*N)``
    element of the sorted values.

    Distributed shape: the scan is pruned to the two needed columns,
    groups shuffle once (low-cardinality facet keys over narrow int
    rows), and each group computes its quantiles exactly with one
    sorted numpy pass.  For a HIGH-cardinality or skewed group column
    the per-group pass stays bounded (one group per task); for a
    single huge group use ``sketches.quantiles_disc`` (log-pass
    bracketing) per group instead."""
    import os

    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                         columns=[group_col, value_col])

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        row = {group_col: [g[group_col].iloc[0]]}
        for q in qs:
            r = max(1, int(np.ceil(q * n)))
            row[f"p{int(q * 100)}"] = np.asarray([v[r - 1]], dtype=np.int64)
        return pd.DataFrame(row)

    strip = ds.map_batches(lambda t: t.replace_schema_metadata(None),
                           batch_format="pyarrow")
    out = (strip.groupby(group_col)
           .map_groups(per_group, batch_format="pandas").to_pandas())
    return out.sort_values(group_col).reset_index(drop=True)


def late_shipment_priority(sf_dir: str, *, grace_days: int = 30,
                           num_partitions: int = 8):
    """TPC-H Q4-shape EXISTS semi-join: per order priority, how many
    orders have at least one LATE lineitem (shipped more than
    ``grace_days`` days after the order date).

    Distributed shape: both fact tables column-pruned at the scan,
    inner hash-join on the order key (fact⋈fact — both sides shuffle;
    the order date is needed row-wise so no broadcast applies), the
    lateness predicate vectorized map-side right after the join, the
    EXISTS collapse done as a map-side distinct + one
    (orderkey, priority) dedup groupby — so the second exchange moves
    at most one row per late ORDER, never per lineitem — and a final
    priority-keyed count over that aggregate.
    Columns (o_orderpriority, n_orders)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _strip_meta

    li = _strip_meta(rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                                     columns=["l_orderkey", "l_shipdate"]))
    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]))
    joined = li.join(orders, join_type="inner",
                     num_partitions=num_partitions,
                     on=("l_orderkey",), right_on=("o_orderkey",))

    grace = np.timedelta64(grace_days, "D").astype("timedelta64[us]")

    def late_orders(t: pa.Table) -> pa.Table:
        cutoff = pc.add(t["o_orderdate"], pa.scalar(grace))
        keep = t.filter(pc.greater(t["l_shipdate"], cutoff))
        return pa.table({
            "l_orderkey": keep["l_orderkey"],
            "o_orderpriority": keep["o_orderpriority"],
        }).group_by(["l_orderkey", "o_orderpriority"]).aggregate([])

    late = (joined.map_batches(late_orders, batch_format="pyarrow")
            .groupby(["l_orderkey", "o_orderpriority"])
            .aggregate(Count(alias_name="_n")))
    out = (late.select_columns(["o_orderpriority"])
           .groupby("o_orderpriority")
           .aggregate(Count(alias_name="n_orders")).to_pandas())
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def pricing_rollup(sf_dir: str):
    """Hierarchical (ROLLUP) aggregate: lineitem quantity/revenue sums
    at three levels — (returnflag, linestatus), (returnflag), and grand
    total — the GROUPING SETS shape of TPC-H Q1's report rollup.

    Distributed shape: ONE corpus pass computes the finest-level
    aggregate (map-side partial sums ride the one small groupby); the
    coarser levels are derived from that aggregate-sized frame
    driver-side — re-scanning the fact table per level is the
    anti-pattern.  NULL group keys are encoded as '' (ANSI ROLLUP uses
    NULL; '' keeps the hash-compare deterministic).  Columns
    (l_returnflag, l_linestatus, sum_qty, sum_revenue)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "revenue": rev,
        })

    fine = (ds.map_batches(derive, batch_format="pyarrow")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("l_quantity", alias_name="sum_qty"),
                       Sum("revenue", alias_name="sum_revenue"))
            .to_pandas())
    mid = (fine.groupby("l_returnflag", as_index=False)
           [["sum_qty", "sum_revenue"]].sum())
    mid["l_linestatus"] = ""
    top = pd.DataFrame({
        "l_returnflag": [""], "l_linestatus": [""],
        "sum_qty": [fine["sum_qty"].sum()],
        "sum_revenue": [fine["sum_revenue"].sum()],
    })
    out = pd.concat([fine, mid, top], ignore_index=True)
    out["sum_qty"] = out["sum_qty"].round(4)
    out["sum_revenue"] = out["sum_revenue"].round(4)
    return (out[["l_returnflag", "l_linestatus", "sum_qty", "sum_revenue"]]
            .sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True))


def fuzzy_name_join(sf_dir: str, *, max_dist: int = 2):
    """Blocked fuzzy self-join (record linkage): pairs of parts in the
    SAME brand block whose names are within ``max_dist`` edit distance
    — the blocking + pairwise-comparison shape of entity resolution
    (reference similarity kernel: ``functions/similarity.levenshtein``,
    cited to src/Utils/Levenshtein.php in its docstring).

    Distributed shape: blocking IS the scale story — one brand-keyed
    shuffle bounds the quadratic term to block size; inside each block
    the distance matrix is computed once over DISTINCT names (typically
    ≪ rows) with an early-exit length prefilter, then expanded to id
    pairs, so per-block cost is O(names² · len) + O(pairs), never
    O(rows²·len).  Columns (p_partkey_a, p_partkey_b, p_brand, dist)."""
    import itertools

    import ray.data as rd

    from ..functions.similarity import levenshtein, levenshtein_within

    ds = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name", "p_brand"])

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        brand = g["p_brand"].iloc[0]
        ids_by_name: dict = {}
        for pk, nm in zip(g["p_partkey"].to_numpy(), g["p_name"]):
            ids_by_name.setdefault(nm, []).append(int(pk))
        names = sorted(ids_by_name)
        a_out, b_out, d_out = [], [], []

        def emit(ids_a, ids_b, d, same):
            pairs = (itertools.combinations(sorted(ids_a), 2) if same
                     else itertools.product(ids_a, ids_b))
            for x, y in pairs:
                lo, hi = (x, y) if x < y else (y, x)
                a_out.append(lo)
                b_out.append(hi)
                d_out.append(d)

        for i, na in enumerate(names):
            if len(ids_by_name[na]) > 1:
                emit(ids_by_name[na], None, 0, True)
            for nb in names[i + 1:]:
                if levenshtein_within(na, nb, max_dist):
                    emit(ids_by_name[na], ids_by_name[nb],
                         levenshtein(na, nb), False)
        return pd.DataFrame({
            "p_partkey_a": pd.array(a_out, dtype="int64"),
            "p_partkey_b": pd.array(b_out, dtype="int64"),
            "p_brand": [brand] * len(a_out),
            "dist": pd.array(d_out, dtype="int64"),
        })

    out = (ds.groupby("p_brand")
           .map_groups(block_pairs, batch_format="pandas").to_pandas())
    return (out.sort_values(["p_partkey_a", "p_partkey_b"])
            .reset_index(drop=True))


def group_dispersion(sf_dir: str):
    """Per-group dispersion statistics over lineitem prices: count,
    mean, sample standard deviation, min, max per return flag — the
    numeric-profile shape every column-profiler / data-quality pass
    emits.

    Distributed shape: a single groupby with Ray's native streaming
    aggregates (Welford-style partial merge for Std — map-side partials,
    one tiny exchange); the driver sees |groups| rows.  Columns
    (l_returnflag, n, mean_price, std_price, min_price, max_price)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Mean, Min, Std

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    out = (ds.groupby("l_returnflag")
           .aggregate(Count(alias_name="n"),
                      Mean("l_extendedprice", alias_name="mean_price"),
                      Std("l_extendedprice", alias_name="std_price"),
                      Min("l_extendedprice", alias_name="min_price"),
                      Max("l_extendedprice", alias_name="max_price"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    for c in ("mean_price", "std_price", "min_price", "max_price"):
        out[c] = out[c].round(4)
    return out.sort_values("l_returnflag").reset_index(drop=True)


def percent_rank_nchars(sf_dir: str, *, round_to: int = 6,
                        as_dataset: bool = False):
    """Global ``percent_rank()`` of every document by ``n_chars`` —
    full-table window ranking WITHOUT a global sort: the exact
    value-histogram prefix-sum pattern.  One (value → count) groupby
    (bounded by the distinct-value count), a driver-side cumsum over
    that tiny histogram, and a broadcast rank lookup applied map-side —
    rank(v) = #rows with value < v + 1 (ties share the rank), so
    percent_rank = (rank-1)/(N-1) matches the SQL window exactly while
    the corpus never sorts or leaves its partitions.
    Columns (doc_id, n_chars, pr)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    hist = ds.groupby("n_chars").aggregate(Count(alias_name="c")).to_pandas()
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    n_total = int(hist["c"].sum())
    below = np.concatenate([[0], np.cumsum(hist["c"].to_numpy())[:-1]])
    pr_map = {int(v): round(float(b) / (n_total - 1), round_to)
              for v, b in zip(hist["n_chars"], below)} if n_total > 1 else \
             {int(v): 0.0 for v in hist["n_chars"]}
    ref = ray.put(pr_map)

    def attach(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        v = t["n_chars"].to_numpy(zero_copy_only=False)
        pr = np.fromiter((m[int(x)] for x in v), np.float64, v.size)
        return pa.table({"doc_id": t["doc_id"], "n_chars": t["n_chars"],
                         "pr": pa.array(pr, pa.float64())})

    attached = ds.map_batches(attach, batch_format="pyarrow")
    if as_dataset:
        # streaming contract for the 100 TB path (write_parquet-able)
        return attached.sort("doc_id")
    out = attached.to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def customer_order_counts(sf_dir: str, *, k: int = 20,
                          num_partitions: int = 8):
    """LEFT OUTER join: every customer with their order count, zero
    included — the classic outer-join + COALESCE report (complements
    the anti-join "customers without orders" entry).

    Distributed shape: the order side is pre-aggregated to
    (custkey, n) BEFORE the join (aggregate-sized), then a left_outer
    hash join against customers, nulls coalesced to 0 map-side.
    Returns the first ``k`` customers by custkey.
    Columns (c_custkey, c_name, n_orders)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _strip_meta

    cust = _strip_meta(rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]))
    counts = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"])) \
        .groupby("o_custkey").aggregate(Count(alias_name="n_orders"))
    j = cust.join(counts, join_type="left_outer",
                  num_partitions=num_partitions,
                  on=("c_custkey",), right_on=("o_custkey",))

    def fix(t: pa.Table) -> pa.Table:
        n = pc.coalesce(t["n_orders"], pa.scalar(0, t["n_orders"].type))
        return pa.table({"c_custkey": t["c_custkey"], "c_name": t["c_name"],
                         "n_orders": pc.cast(n, pa.int64())})

    out = (j.map_batches(fix, batch_format="pyarrow")
           .sort("c_custkey").limit(k).to_pandas())
    out["c_custkey"] = out["c_custkey"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out


def group_price_qty_corr(sf_dir: str, *, round_to: int = 6):
    """Per-group Pearson correlation (price vs quantity) plus a
    quantity-weighted mean discount — composite aggregates assembled
    from map-side moment partials (sum x, y, xy, x², w, wx), the
    pattern for ANY algebraic aggregate Ray lacks natively.

    Distributed shape: ONE pass computes all six partials per batch
    (vectorized), one tiny per-group exchange, and the closed-form
    corr/weighted-mean arithmetic runs on the |groups|-row aggregate.
    Columns (l_returnflag, n, corr_price_qty, wavg_discount)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity",
                 "l_discount"])

    def partials(t: pa.Table) -> pa.Table:
        x = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        y = t["l_quantity"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
            "syy": pa.array(y * y),
            "wd": pa.array(y * d),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("l_returnflag")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"), Sum("sy", alias_name="sy"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("syy", alias_name="syy"),
                      Sum("wd", alias_name="wd"))
           .to_pandas())
    n = agg["n"].to_numpy(np.float64)
    sx, sy = agg["sx"].to_numpy(), agg["sy"].to_numpy()
    cov = agg["sxy"].to_numpy() - sx * sy / n
    vx = agg["sxx"].to_numpy() - sx * sx / n
    vy = agg["syy"].to_numpy() - sy * sy / n
    corr = cov / np.sqrt(vx * vy)
    out = pd.DataFrame({
        "l_returnflag": agg["l_returnflag"],
        "n": agg["n"].astype("int64"),
        "corr_price_qty": np.round(corr, round_to),
        "wavg_discount": np.round(agg["wd"].to_numpy() / sy, round_to),
    })
    return out.sort_values("l_returnflag").reset_index(drop=True)


def above_class_average(sf_dir: str, *, round_to: int = 4):
    """Orders priced above their own priority class's average — the
    correlated-subquery shape (``WHERE x > (SELECT avg(x) ... same
    class)``) decorrelated into a broadcast aggregate.

    Distributed shape: pass 1 computes the |classes|-row mean table
    (one tiny shuffle-aggregate), which is broadcast via ``ray.put``;
    pass 2 filters map-side against the looked-up class mean and feeds
    one final per-class aggregate — the raw table never joins or
    sorts.  ``avg_excess`` is the mean of qualifying prices minus the
    class mean (algebraically identical on both sides so float
    summation order can't flip the rounding).
    Columns (o_orderpriority, n_above, avg_excess)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Mean

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_totalprice"])
    means = ds.groupby("o_orderpriority") \
        .aggregate(Mean("o_totalprice", alias_name="mp")).to_pandas()
    mp = {r.o_orderpriority: float(r.mp) for r in means.itertuples()}
    ref = ray.put(mp)

    def flag(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        pr = t["o_orderpriority"].to_pylist()
        x = t["o_totalprice"].to_numpy(zero_copy_only=False)
        thr = np.fromiter((m[p] for p in pr), np.float64, len(pr))
        keep = x > thr
        return pa.table({
            "o_orderpriority": pa.array(np.asarray(pr, object)[keep]),
            "o_totalprice": pa.array(x[keep], pa.float64()),
        })

    out = (ds.map_batches(flag, batch_format="pyarrow")
           .groupby("o_orderpriority")
           .aggregate(Count(alias_name="n_above"),
                      Mean("o_totalprice", alias_name="avg_sel"))
           .to_pandas())
    out["n_above"] = out["n_above"].astype("int64")
    out["avg_excess"] = (out["avg_sel"]
                         - out["o_orderpriority"].map(mp)).round(round_to)
    return (out[["o_orderpriority", "n_above", "avg_excess"]]
            .sort_values("o_orderpriority").reset_index(drop=True))


def group_skew_kurt(sf_dir: str, *, round_to: int = 6):
    """Per-group sample skewness and excess kurtosis of lineitem prices
    (DuckDB/SQL bias-corrected definitions) — higher-moment composite
    aggregates via numerically-clean TWO-PASS central moments.

    Distributed shape: pass 1 is one tiny per-group mean aggregate
    (broadcast); pass 2 accumulates per-batch partials of
    (x-mu)^2/3/4 + count (vectorized), one |groups|-row exchange, and
    the closed-form bias corrections run on the aggregate.  Centering
    before exponentiation avoids the raw-moment cancellation that
    makes one-pass m3/m4 unusable at scale.
    Columns (l_returnflag, n, skew_price, kurt_price)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    means = ds.groupby("l_returnflag").mean("l_extendedprice").to_pandas()
    mu = {r.l_returnflag: float(r[1]) for r in means.itertuples(index=False)}
    ref = ray.put(mu)

    def partials(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        flags = t["l_returnflag"].to_pylist()
        x = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        mus = np.fromiter((m[f] for f in flags), np.float64, len(flags))
        d = x - mus
        d2 = d * d
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "one": pa.array(np.ones_like(d), pa.float64()),
                         "s2": pa.array(d2, pa.float64()),
                         "s3": pa.array(d2 * d, pa.float64()),
                         "s4": pa.array(d2 * d2, pa.float64())})

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("l_returnflag")
           .aggregate(Sum("one", alias_name="n"),
                      Sum("s2", alias_name="s2"),
                      Sum("s3", alias_name="s3"),
                      Sum("s4", alias_name="s4"))
           .to_pandas())
    n = agg["n"].to_numpy(np.float64)
    m2 = agg["s2"].to_numpy(np.float64) / n
    m3 = agg["s3"].to_numpy(np.float64) / n
    m4 = agg["s4"].to_numpy(np.float64) / n
    g1 = m3 / np.power(m2, 1.5)
    g2 = m4 / (m2 * m2) - 3.0
    skew = g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)
    kurt = ((n - 1.0) / ((n - 2.0) * (n - 3.0))) * ((n + 1.0) * g2 + 6.0)
    out = pd.DataFrame({
        "l_returnflag": agg["l_returnflag"],
        "n": n.astype(np.int64),
        "skew_price": np.round(skew, round_to),
        "kurt_price": np.round(kurt, round_to),
    })
    return out.sort_values("l_returnflag").reset_index(drop=True)


def composite_page(sf_dir: str, *, keys=("lang", "source"), size: int = 10,
                   after=("en", "src3")):
    """ES ``composite`` aggregation page: multi-key buckets ordered by
    the key tuple, returning ``size`` buckets strictly AFTER the
    ``after`` key — the resumable cursor over an unbounded bucket space
    (the only ES agg that pages deterministically).

    Distributed shape: one shuffle-aggregate bounded by the composite
    cardinality; the after-key cut and page sort run on that aggregate.
    At 100 TB the bucket table itself can be large — the same after-key
    predicate pushes into the aggregate output as a map-side filter, so
    only the tail of the bucket space reaches the driver.
    Columns (*keys, doc_count)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    k0, k1 = keys
    a0, a1 = after
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=list(keys))
    agg = ds.groupby(list(keys)).aggregate(Count(alias_name="doc_count"))

    def page_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        gt0 = pc.greater(t[k0], a0)
        eq0 = pc.equal(t[k0], a0)
        gt1 = pc.greater(t[k1], a1)
        return t.filter(pc.or_(gt0, pc.and_(eq0, gt1)))

    out = agg.map_batches(page_filter, batch_format="pyarrow").to_pandas()
    if len(out) == 0:  # exhausted cursor: keep the declared schema
        return pd.DataFrame({k0: pd.Series(dtype=str),
                             k1: pd.Series(dtype=str),
                             "doc_count": pd.Series(dtype="int64")})
    out["doc_count"] = out["doc_count"].astype("int64")
    return (out.sort_values(list(keys)).head(size)
            .reset_index(drop=True))


def brand_supplier_counts(sf_dir: str, *, num_partitions: int | None = None):
    """Distinct suppliers per part brand (TPC-H Q16 shape): the
    join-then-COUNT-DISTINCT report.

    Distributed shape: lineitem first collapses to its DISTINCT
    (partkey, suppkey) pairs (map-side combine + one pair-keyed
    groupby — the fact table never reaches the join at raw
    cardinality), hash-joins the part dimension, re-dedups on
    (brand, suppkey), and counts per brand.  Every exchange after the
    first is bounded by |parts x suppliers-per-part|, not |lineitem|.
    Columns (p_brand, n_suppliers)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _default_join_partitions, _join_ready, _strip_meta

    num_partitions = _default_join_partitions(num_partitions)
    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]))

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    pairs = (li.map_batches(batch_distinct, batch_format="pyarrow")
             .groupby(["l_partkey", "l_suppkey"])
             .aggregate(Count(alias_name="_n"))
             .drop_columns(["_n"]))
    part = _strip_meta(rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]))
    j = _join_ready(pairs, num_partitions).join(
        _join_ready(part, num_partitions), join_type="inner",
        num_partitions=num_partitions,
        on=("l_partkey",), right_on=("p_partkey",))
    bs = (j.groupby(["p_brand", "l_suppkey"])
          .aggregate(Count(alias_name="_n"))
          .groupby("p_brand").aggregate(Count(alias_name="n_suppliers"))
          .to_pandas())
    bs["n_suppliers"] = bs["n_suppliers"].astype("int64")
    return bs.sort_values("p_brand").reset_index(drop=True)


def percentile_ranks(sf_dir: str, *, thresholds=(50000.0, 150000.0,
                                                 300000.0),
                     round_to: int = 6):
    """ES ``percentile_ranks`` (inverse percentiles): for each given
    value, the fraction of orders priced at or below it — exact, in ONE
    streaming pass.

    Distributed shape: each batch emits one row of indicator SUMS (a
    |thresholds|-wide vectorized compare), a single tiny aggregate
    finishes — no sort, no histogram, no per-value scan.
    Columns (threshold, frac)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    thr = np.asarray(thresholds, np.float64)
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["o_totalprice"].to_numpy(zero_copy_only=False)
        le = (x[:, None] <= thr[None, :]).sum(axis=0)
        cols = {"n": pa.array([np.int64(x.size)], pa.int64())}
        for i in range(thr.size):
            cols[f"c{i}"] = pa.array([np.int64(le[i])], pa.int64())
        return pa.table(cols)

    aggs = [Sum("n", alias_name="n")] + [
        Sum(f"c{i}", alias_name=f"c{i}") for i in range(thr.size)]
    row = ds.map_batches(partial, batch_format="pyarrow").aggregate(*aggs)
    n = int(row["n"])
    out = pd.DataFrame({
        "threshold": thr,
        "frac": [round(int(row[f"c{i}"]) / n, round_to)
                 for i in range(thr.size)],
    })
    return out


def price_neighborhood_counts(sf_dir: str, *, width: float = 5000.0,
                              k: int = 50):
    """SQL RANGE-frame window: for each order, how many orders of the
    same priority class are priced within ±``width`` — the value-range
    window frame (``RANGE BETWEEN w PRECEDING AND w FOLLOWING``), which
    unlike ROWS frames cannot be computed by row offsets.

    Distributed shape: one shuffle groups each priority class; inside
    the group a sorted ``searchsorted`` double-pointer computes every
    row's neighborhood count in O(n log n) — no per-row rescan, no
    self-join blowup.  Returns the first ``k`` orders by key.
    Columns (o_orderkey, o_orderpriority, n_near)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_orderpriority",
                                  "o_totalprice"])

    def near(g: pd.DataFrame) -> pd.DataFrame:
        p = np.sort(g["o_totalprice"].to_numpy(np.float64))
        x = g["o_totalprice"].to_numpy(np.float64)
        n = (np.searchsorted(p, x + width, side="right")
             - np.searchsorted(p, x - width, side="left"))
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"].astype("int64"),
            "o_orderpriority": g["o_orderpriority"],
            "n_near": pd.array(n.astype(np.int64), dtype="int64"),
        })

    out = (ds.groupby("o_orderpriority")
           .map_groups(near, batch_format="pandas").to_pandas())
    return (out.sort_values("o_orderkey").head(k)
            .reset_index(drop=True))


def pricing_cube(sf_dir: str):
    """Full CUBE aggregate: lineitem quantity/revenue sums at all FOUR
    grouping sets — (flag, status), (flag), (status), and grand total —
    the cross-marginal report ROLLUP can't produce.

    Distributed shape: same as ``pricing_rollup`` — ONE corpus pass
    computes the finest-level aggregate; all three marginals are
    re-aggregations of that |groups|-row frame (exact for SUM), never a
    second fact-table scan.  NULL keys encode as ''.
    Columns (l_returnflag, l_linestatus, sum_qty, sum_revenue)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "revenue": rev,
        })

    fine = (ds.map_batches(derive, batch_format="pyarrow")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("l_quantity", alias_name="sum_qty"),
                       Sum("revenue", alias_name="sum_revenue"))
            .to_pandas())
    by_flag = (fine.groupby("l_returnflag", as_index=False)
               [["sum_qty", "sum_revenue"]].sum())
    by_flag["l_linestatus"] = ""
    by_status = (fine.groupby("l_linestatus", as_index=False)
                 [["sum_qty", "sum_revenue"]].sum())
    by_status["l_returnflag"] = ""
    top = pd.DataFrame({
        "l_returnflag": [""], "l_linestatus": [""],
        "sum_qty": [fine["sum_qty"].sum()],
        "sum_revenue": [fine["sum_revenue"].sum()],
    })
    out = pd.concat([fine, by_flag, by_status, top], ignore_index=True)
    out["sum_qty"] = out["sum_qty"].round(4)
    out["sum_revenue"] = out["sum_revenue"].round(4)
    return (out[["l_returnflag", "l_linestatus", "sum_qty", "sum_revenue"]]
            .sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True))


def bloom_filtered_revenue(sf_dir: str, *, priority: str = "1-URGENT",
                           bloom_bits: int = 1 << 20, n_hashes: int = 4,
                           num_partitions: int | None = None):
    """Runtime-filter join: lineitem revenue for orders of one priority
    class, with a broadcast BLOOM filter of the qualifying order keys
    pruning the fact table map-side BEFORE the exchange — the
    runtime-filter pushdown every warehouse engine applies to
    selective dimension joins.  The Bloom pass has no false negatives;
    an exact semi-join on the surviving minority removes its false
    positives, so the answer is bit-identical to the plain join.
    Columns (l_returnflag, n, revenue)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .dedup import _default_join_partitions, _join_ready, _strip_meta
    from .sketches import _splitmix64

    nparts = _default_join_partitions(num_partitions)
    nbytes = bloom_bits // 8

    keys = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"])
        .filter(expr=f"o_orderpriority == '{priority}'")
        .select_columns(["o_orderkey"]))

    def _positions(k: np.ndarray) -> np.ndarray:
        h1 = _splitmix64(k.astype(np.uint64)) % np.uint64(bloom_bits)
        h2 = (_splitmix64(k.astype(np.uint64) ^ np.uint64(0x9E3779B9))
              % np.uint64(bloom_bits - 1)) + np.uint64(1)
        return np.stack([(h1 + np.uint64(i) * h2) % np.uint64(bloom_bits)
                         for i in range(n_hashes)], axis=1)

    def bitmap(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        bits = np.zeros(nbytes, dtype=np.uint8)
        if k.size:
            idx = _positions(k).ravel().astype(np.int64)
            np.bitwise_or.at(bits, idx >> 3,
                             (1 << (idx & 7)).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    parts = keys.map_batches(bitmap, batch_format="pyarrow").to_pandas()
    bits = np.zeros(nbytes, dtype=np.uint8)
    for b in parts["bits"]:
        bits |= np.frombuffer(b, dtype=np.uint8)
    bits_ref = ray.put(bits)

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"]))

    def prefilter(t: pa.Table) -> pa.Table:
        bm = ray.get(bits_ref)
        k = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = _positions(k)
        ok = np.ones(k.size, dtype=bool)
        for i in range(n_hashes):
            p = idx[:, i].astype(np.int64)
            ok &= (bm[p >> 3] & (1 << (p & 7)).astype(np.uint8)) != 0
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        return pa.table({
            "l_orderkey": pa.array(k[ok], pa.int64()),
            "l_returnflag": t["l_returnflag"].filter(pa.array(ok)),
            "rev": pa.array(rev[ok], pa.float64()),
        })

    pruned = li.map_batches(prefilter, batch_format="pyarrow")
    exact = pruned.join(_join_ready(keys, nparts), "left_semi", nparts,
                        on=("l_orderkey",), right_on=("o_orderkey",))
    out = (exact.groupby("l_returnflag")
           .aggregate(Count(alias_name="n"),
                      Sum("rev", alias_name="revenue"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["revenue"] = out["revenue"].round(4)
    return out.sort_values("l_returnflag").reset_index(drop=True)


def code_lang_stats(sf_dir: str):
    """Source-corpus profile: per language, file count, total content
    bytes (chars), and mean file size — the ingest-side corpus report
    for the code table.  One column-pruned pass + a |langs|-row
    aggregate.  Columns (lang, n_files, total_chars, avg_chars)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Mean, Sum

    from ..sources.corpus import corpus_path

    ds = rd.read_parquet(corpus_path(sf_dir), columns=["lang", "content"])

    def derive(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(t["content"].combine_chunks()),
                    pa.int64())
        return pa.table({"lang": t["lang"], "n_chars": n})

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_files"),
                      Sum("n_chars", alias_name="total_chars"),
                      Mean("n_chars", alias_name="avg_chars"))
           .to_pandas())
    out["n_files"] = out["n_files"].astype("int64")
    out["total_chars"] = out["total_chars"].astype("int64")
    out["avg_chars"] = out["avg_chars"].round(4)
    return out.sort_values("lang").reset_index(drop=True)


def code_repo_topk(sf_dir: str, *, k: int = 10):
    """Top repositories by file count (ties by repo asc) — the skew
    report that drives hot-repo partition splitting at ingest.
    Columns (repo, n_files)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..sources.corpus import corpus_path

    ds = rd.read_parquet(corpus_path(sf_dir), columns=["repo"])
    out = (ds.groupby("repo").aggregate(Count(alias_name="n_files"))
           .to_pandas())
    out["n_files"] = out["n_files"].astype("int64")
    return (out.sort_values(["n_files", "repo"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def code_dir_stats(sf_dir: str, *, k: int = 50):
    """Repository-layout report: per second-level path segment
    (``src/<module>``), file count and distinct-language count — the
    directory-structure profile (vectorized Arrow path split, one
    module-keyed aggregate + a distinct-pair pass).
    Columns (module, n_files, n_langs)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..sources.corpus import corpus_path

    ds = rd.read_parquet(corpus_path(sf_dir), columns=["path", "lang"])

    def derive(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["path"].combine_chunks(), pattern="/")
        mod = pc.list_element(parts, 1)
        return pa.table({"module": mod, "lang": t["lang"]})

    mods = ds.map_batches(derive, batch_format="pyarrow")
    files = mods.groupby("module").aggregate(Count(alias_name="n_files"))

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["module", "lang"]).aggregate([])

    langs = (mods.map_batches(batch_distinct, batch_format="pyarrow")
             .groupby(["module", "lang"]).aggregate(Count(alias_name="_n"))
             .groupby("module").aggregate(Count(alias_name="n_langs")))
    f = files.to_pandas()
    l_ = langs.to_pandas()
    out = f.merge(l_, on="module")
    out["n_files"] = out["n_files"].astype("int64")
    out["n_langs"] = out["n_langs"].astype("int64")
    return (out.sort_values("module").head(k).reset_index(drop=True))


def salted_join_revenue(sf_dir: str, *, salt: int = 4,
                        num_partitions: int | None = None):
    """Skew-mitigated (SALTED) big⋈small join: lineitem revenue per
    order priority, with the fact side salted ``hash(row) % salt`` and
    the dimension side replicated once per salt value, so one hot join
    key can never pin a single aggregator — the standard hot-key
    defense; answer bit-identical to the plain join (the SQL oracle).

    Distributed shape: the fact table pre-aggregates revenue per
    (orderkey, salt) map-side, joins on the composite (key, salt), and
    the per-priority rollup collapses the salt away.
    Columns (o_orderpriority, n_lines, revenue)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .dedup import _default_join_partitions, _join_ready, _strip_meta

    nparts = _default_join_partitions(num_partitions)
    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice",
                 "l_discount"]))

    def fact(t: pa.Table) -> pa.Table:
        k = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        s = (k * 1000003 + ln) % salt  # deterministic per-row salt
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        return pa.table({"l_orderkey": pa.array(k, pa.int64()),
                         "salt": pa.array(s, pa.int64()),
                         "rev": pa.array(rev, pa.float64()),
                         "one": pa.array(np.ones_like(rev), pa.float64())})

    pre = (li.map_batches(fact, batch_format="pyarrow")
           .groupby(["l_orderkey", "salt"])
           .aggregate(Sum("rev", alias_name="rev"),
                      Sum("one", alias_name="n")))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])

    def replicate(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pr = np.asarray(t["o_orderpriority"].to_pylist(), dtype=object)
        return pa.table({
            "o_orderkey": pa.array(np.repeat(k, salt), pa.int64()),
            "salt": pa.array(np.tile(np.arange(salt, dtype=np.int64),
                                     k.size), pa.int64()),
            "o_orderpriority": pa.array(np.repeat(pr, salt)),
        })

    dim = orders.map_batches(replicate, batch_format="pyarrow")
    j = _join_ready(pre, nparts).join(
        _join_ready(dim, nparts), join_type="inner",
        num_partitions=nparts,
        on=("l_orderkey", "salt"), right_on=("o_orderkey", "salt"))
    out = (j.groupby("o_orderpriority")
           .aggregate(Sum("n", alias_name="n_lines"),
                      Sum("rev", alias_name="revenue")).to_pandas())
    out["n_lines"] = out["n_lines"].astype("int64")
    out["revenue"] = out["revenue"].round(4)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def returned_item_revenue(sf_dir: str, *, k: int = 20,
                          num_partitions: int | None = None):
    """TPC-H Q10 shape: top customers by revenue from RETURNED items —
    a three-table join (lineitem ⋈ orders ⋈ customer) with the fact
    side filtered and pre-aggregated before any exchange.

    Distributed shape: lineitem filters returnflag='R' at the read and
    collapses to per-order revenue map-side; the orders join carries
    custkey only; the per-customer rollup is aggregate-sized before the
    customer-name broadcast attaches.  Columns (c_custkey, c_name,
    revenue)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _default_join_partitions, _join_ready, _strip_meta

    nparts = _default_join_partitions(num_partitions)
    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"]).filter(expr="l_returnflag == 'R'"))

    def rev(t: pa.Table) -> pa.Table:
        r = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
             * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev": pa.array(r, pa.float64())})

    per_order = (li.map_batches(rev, batch_format="pyarrow")
                 .groupby("l_orderkey").aggregate(Sum("rev",
                                                      alias_name="rev")))
    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]))
    j = _join_ready(per_order, nparts).join(
        _join_ready(orders, nparts), join_type="inner",
        num_partitions=nparts, on=("l_orderkey",), right_on=("o_orderkey",))
    per_cust = j.groupby("o_custkey").aggregate(Sum("rev",
                                                    alias_name="revenue"))
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    names_ref = ray.put(dict(zip(cust.c_custkey, cust.c_name)))

    def attach(t: pa.Table) -> pa.Table:
        names = ray.get(names_ref)
        keys = t["o_custkey"].to_pylist()
        return pa.table({
            "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
            "c_name": pa.array([names.get(x) for x in keys], pa.string()),
            "revenue": pc.round(t["revenue"], ndigits=4),
        })

    out = (per_cust.map_batches(attach, batch_format="pyarrow")
           .sort(["revenue", "c_custkey"], descending=[True, False])
           .limit(k).to_pandas())
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out.reset_index(drop=True)


def q6_band_revenue(sf_dir: str, *, lo: float = 0.04, hi: float = 0.06,
                    max_qty: float = 24.0, year: int = 1995):
    """TPC-H Q6 shape: potential revenue from lineitems in a discount
    band, below a quantity cap, shipped in one year — the canonical
    one-pass filtered aggregate (predicate pushdown + map-side partial
    sums; nothing shuffles but one scalar row).
    Columns (revenue, n_lines)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        keep = (d >= lo) & (d <= hi) & (q < max_qty) & (yr == year)
        return pa.table({
            "rev": pa.array([float((p[keep] * d[keep]).sum())],
                            pa.float64()),
            "n": pa.array([np.int64(keep.sum())], pa.int64()),
        })

    row = (ds.map_batches(partial, batch_format="pyarrow")
           .aggregate(Sum("rev", alias_name="rev"),
                      Sum("n", alias_name="n")))
    return pd.DataFrame({
        "revenue": [round(float(row["rev"]), 4)],
        "n_lines": pd.array([int(row["n"])], dtype="int64"),
    })


def group_mad(sf_dir: str, *, round_to: int = 4):
    """Per-group MEDIAN and MEDIAN ABSOLUTE DEVIATION of lineitem
    prices — the robust dispersion pair (outlier-insensitive, unlike
    mean/std), interpolated-median semantics matching SQL ``median`` /
    ``mad``.

    Distributed shape: one group shuffle, exact per-group numpy medians
    inside ``map_groups`` (two sorted passes per group); for a single
    huge group the histogram-narrowing selection in
    ``sketches.quantiles_disc`` is the fallback.
    Columns (l_returnflag, n, median_price, mad_price)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])

    def mad(g: pd.DataFrame) -> pd.DataFrame:
        x = g["l_extendedprice"].to_numpy(np.float64)
        med = float(np.median(x))
        m = float(np.median(np.abs(x - med)))
        return pd.DataFrame({
            "l_returnflag": [g["l_returnflag"].iloc[0]],
            "n": pd.array([x.size], dtype="int64"),
            "median_price": [round(med, round_to)],
            "mad_price": [round(m, round_to)],
        })

    out = (ds.groupby("l_returnflag")
           .map_groups(mad, batch_format="pandas").to_pandas())
    return out.sort_values("l_returnflag").reset_index(drop=True)


def priority_share_trend(sf_dir: str, *, priority: str = "1-URGENT",
                         round_to: int = 6):
    """Monthly share of one order-priority class — the composition
    trend (conditional count over total per time bucket).

    Distributed shape: one (month)-keyed aggregate carrying both the
    conditional and total counts as map-side partials.
    Columns (month, n_total, n_priority, share)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderdate", "o_orderpriority"])

    def derive(t: pa.Table) -> pa.Table:
        month = pc.floor_temporal(t["o_orderdate"], unit="month")
        isp = pc.cast(pc.equal(t["o_orderpriority"], priority), pa.int64())
        ones = pa.array(np.ones(len(t), np.int64), pa.int64())
        return pa.table({"month": month, "one": ones, "p": isp})

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Sum("one", alias_name="n_total"),
                      Sum("p", alias_name="n_priority")).to_pandas())
    out["n_total"] = out["n_total"].astype("int64")
    out["n_priority"] = out["n_priority"].astype("int64")
    out["share"] = (out["n_priority"] / out["n_total"]).round(round_to)
    return out.sort_values("month").reset_index(drop=True)


def customer_hhi(sf_dir: str, *, round_to: int = 6):
    """Revenue-concentration report: the Herfindahl–Hirschman index of
    customer order-revenue shares plus the top-10 share — "how
    concentrated is our demand" in two numbers.

    Distributed shape: one customer-keyed revenue aggregate; HHI's
    sum-of-squared-shares needs only Σrev and Σrev² over that
    |customers|-row frame (map-side partials), and the top-10 share a
    bounded sort+limit.  Columns (n_customers, hhi, top10_share)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    per_cust = ds.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="rev"))

    def moments(t: pa.Table) -> pa.Table:
        r = t["rev"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([np.int64(r.size)], pa.int64()),
            "s1": pa.array([float(r.sum())], pa.float64()),
            "s2": pa.array([float((r * r).sum())], pa.float64()),
        })

    agg = per_cust.map_batches(moments, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("s1", alias_name="s1"),
        Sum("s2", alias_name="s2"))
    total, s2, n = float(agg["s1"]), float(agg["s2"]), int(agg["n"])
    hhi = s2 / (total * total)
    top10 = (per_cust.sort(["rev", "o_custkey"], descending=[True, False])
             .limit(10).to_pandas()["rev"].sum())
    return pd.DataFrame({
        "n_customers": pd.array([n], dtype="int64"),
        "hhi": [round(hhi, round_to)],
        "top10_share": [round(float(top10) / total, round_to)],
    })


def q14_promo_share(sf_dir: str, *, year: int = 1996, month: int = 3,
                    round_to: int = 6):
    """TPC-H Q14 shape: share of one month's discounted revenue that
    came from PROMO-type parts.

    Distributed shape: the part dimension collapses to a *promo-partkey
    set* (filtered, single-column read) broadcast once via ``ray.put``;
    the lineitem scan is then a zero-shuffle map-side partial
    (``pc.is_in`` membership + two conditional sums) reduced to one
    scalar row.  At a scale where even the promo-key set outgrows a
    broadcast, flip to the ``order_revenue_topk`` big-big hash-join
    shape — the predicate and sums are unchanged.
    Columns (promo_revenue_pct, total_revenue)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    promo = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"],
    ).filter(expr="p_type == 'PROMO'").to_pandas()["p_partkey"].to_numpy()
    promo_ref = ray.put(np.sort(promo.astype(np.int64)))

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        keys = ray.get(promo_ref)
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        mo = pc.month(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        keep = (yr == year) & (mo == month)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)[keep]
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        d = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        rev = p * (1.0 - d)
        idx = np.searchsorted(keys, pk).clip(0, max(keys.size - 1, 0))
        is_promo = (keys[idx] == pk) if keys.size \
            else np.zeros(pk.size, dtype=bool)
        return pa.table({
            "promo": pa.array([float(rev[is_promo].sum())], pa.float64()),
            "total": pa.array([float(rev.sum())], pa.float64()),
        })

    row = (ds.map_batches(partial, batch_format="pyarrow")
           .aggregate(Sum("promo", alias_name="promo"),
                      Sum("total", alias_name="total")))
    total = float(row["total"])
    return pd.DataFrame({
        "promo_revenue_pct": [round(100.0 * float(row["promo"]) / total,
                                    round_to)],
        "total_revenue": [round(total, 4)],
    })


def q17_small_quantity_revenue(sf_dir: str, *, brand: str = "Brand#23",
                               frac: float = 0.5, round_to: int = 4):
    """TPC-H Q17 shape: average yearly revenue lost if small orders
    (quantity below ``frac`` × the part's average) of one brand's parts
    were no longer taken — the canonical *aggregate-then-rejoin*
    correlated subquery.

    Distributed shape: pass 1 computes per-partkey avg quantity
    restricted to the brand's partkeys (groupby over a
    brand-semi-joined lineitem — the brand key set broadcast once);
    the per-part threshold table (|brand parts| rows) is broadcast
    back and pass 2 is a zero-shuffle filtered partial sum.
    Columns (avg_yearly, n_small_lines)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Mean, Sum

    bkeys = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"],
    ).filter(expr=f"p_brand == '{brand}'").to_pandas()["p_partkey"]
    bkeys = np.sort(bkeys.to_numpy(np.int64))
    bref = ray.put(bkeys)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])

    def keep_brand(t: pa.Table) -> pa.Table:
        keys = ray.get(bref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, pk).clip(0, max(keys.size - 1, 0))
        mask = (keys[idx] == pk) if keys.size else np.zeros(pk.size, bool)
        return t.filter(pa.array(mask))

    brand_lines = li.map_batches(keep_brand, batch_format="pyarrow")
    avg_qty = brand_lines.groupby("l_partkey").aggregate(
        Mean("l_quantity", alias_name="avg_qty")).to_pandas()
    thr = {int(k): frac * float(v)
           for k, v in zip(avg_qty["l_partkey"], avg_qty["avg_qty"])}
    tkeys = np.array(sorted(thr), dtype=np.int64)
    tvals = np.array([thr[int(k)] for k in tkeys], dtype=np.float64)
    tref = ray.put((tkeys, tvals))

    def small_partial(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(tref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, pk).clip(0, max(keys.size - 1, 0))
        if keys.size:
            small = (keys[idx] == pk) & (q < vals[idx])
        else:
            small = np.zeros(pk.size, bool)
        return pa.table({
            "rev": pa.array([float(p[small].sum())], pa.float64()),
            "n": pa.array([np.int64(small.sum())], pa.int64()),
        })

    row = (li.map_batches(small_partial, batch_format="pyarrow")
           .aggregate(Sum("rev", alias_name="rev"),
                      Sum("n", alias_name="n")))
    return pd.DataFrame({
        "avg_yearly": [round(float(row["rev"]) / 7.0, round_to)],
        "n_small_lines": pd.array([int(row["n"])], dtype="int64"),
    })


def q18_large_orders(sf_dir: str, *, min_qty: float = 180.0, k: int = 20):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold (groupby-HAVING), joined back to orders + customer for
    the top-k report — the canonical having-then-rejoin.

    Distributed shape: one lineitem groupby-sum (map-side combined);
    the HAVING survivor set is *small by construction* (the threshold
    prunes it), so it broadcasts back over the orders scan instead of a
    second shuffle; customer names attach via the existing broadcast
    small-dim pattern.  Columns (o_orderkey, c_name, o_orderdate,
    o_totalprice, total_qty)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    per_order = li.groupby("l_orderkey").aggregate(
        Sum("l_quantity", alias_name="total_qty"))
    big = per_order.filter(expr=f"total_qty > {min_qty}").to_pandas()
    qty = {int(k_): float(v) for k_, v in
           zip(big["l_orderkey"], big["total_qty"])}
    okeys = np.array(sorted(qty), dtype=np.int64)
    oref = ray.put(okeys)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def keep(t: pa.Table) -> pa.Table:
        keys = ray.get(oref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, ok).clip(0, max(keys.size - 1, 0))
        mask = (keys[idx] == ok) if keys.size else np.zeros(ok.size, bool)
        return t.filter(pa.array(mask))

    surv = orders.map_batches(keep, batch_format="pyarrow").to_pandas()
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"]).to_pandas()
    out = surv.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out["total_qty"] = out["o_orderkey"].map(qty).round(4)
    out = (out.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True]).head(k))
    return out[["o_orderkey", "c_name", "o_orderdate", "o_totalprice",
                "total_qty"]].reset_index(drop=True)


def q11_value_share(sf_dir: str, *, mult: float = 1.5, round_to: int = 6):
    """TPC-H Q11 shape: partkeys whose total order value exceeds a
    *multiple of the global per-part average* — per-group aggregate
    gated by a broadcast global scalar (scale-invariant threshold, so
    the survivor set is a stable head fraction at every sf).

    Distributed shape: one partkey groupby-sum (map-side combined);
    the global total/count is a second tiny aggregate over the
    per-part frame (no extra pass over lineitem); the HAVING filter
    streams.  Columns (l_partkey, value, share)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice"])
    per_part = li.groupby("l_partkey").aggregate(
        Sum("l_extendedprice", alias_name="value"))
    agg = per_part.aggregate(Sum("value", alias_name="t"),
                             Count(alias_name="n"))
    total, n_parts = float(agg["t"]), int(agg["n"])
    thr = mult * total / n_parts
    out = per_part.filter(expr=f"value > {thr}").to_pandas()
    out["share"] = (out["value"] / total).round(round_to)
    out["value"] = out["value"].round(4)
    return (out.sort_values(["value", "l_partkey"],
                            ascending=[False, True])
            .reset_index(drop=True))


def segment_priority_chi2(sf_dir: str, *, round_to: int = 4):
    """Chi-square test of independence between customer market segment
    and order priority — the contingency-table association report
    (observed, expected, standardized residual per cell) plus the
    global chi2 statistic repeated per row for a flat schema.

    Distributed shape: the customer dimension broadcasts once as
    sorted (custkey, segment-code) arrays (same small-dim assumption
    as ``top_customers``); the orders scan emits map-side partial
    contingency counts, so the exchange carries |segments × priorities|
    rows per batch; marginals and the statistic are computed on the
    tiny final table.  Columns (c_mktsegment, o_orderpriority,
    observed, expected, std_residual, chi2)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey",
                                    "c_mktsegment"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(np.int64)
    order_ck = np.argsort(ck)
    ck = ck[order_ck]
    segs = sorted(cust["c_mktsegment"].unique())
    seg_code = {s: i for i, s in enumerate(segs)}
    codes = cust["c_mktsegment"].map(seg_code).to_numpy(np.int64)[order_ck]
    ref = ray.put((ck, codes))

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        keys, cd = ray.get(ref)
        okc = t["o_custkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, okc).clip(0, keys.size - 1)
        seg = cd[idx]
        pri = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"seg": seg, "pri": pri})
        g = df.groupby(["seg", "pri"], sort=False).size().reset_index(
            name="n")
        return pa.table({
            "seg": pa.array(g["seg"].to_numpy(np.int64)),
            "pri": pa.array(g["pri"].astype(str)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        })

    cell = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["seg", "pri"])
            .aggregate(Sum("n", alias_name="observed")).to_pandas())
    cell["c_mktsegment"] = cell["seg"].map({v: k for k, v in
                                            seg_code.items()})
    piv = cell.pivot_table(index="c_mktsegment", columns="pri",
                           values="observed", fill_value=0,
                           aggfunc="sum")
    obs = piv.to_numpy(np.float64)
    row_t = obs.sum(axis=1, keepdims=True)
    col_t = obs.sum(axis=0, keepdims=True)
    n = obs.sum()
    exp = row_t @ col_t / n
    resid = (obs - exp) / np.sqrt(exp)
    chi2 = float((resid * resid).sum())
    rows = []
    for i, s in enumerate(piv.index):
        for j, p in enumerate(piv.columns):
            rows.append((s, p, int(obs[i, j]), round(float(exp[i, j]),
                                                     round_to),
                         round(float(resid[i, j]), round_to),
                         round(chi2, round_to)))
    out = pd.DataFrame(rows, columns=["c_mktsegment", "o_orderpriority",
                                      "observed", "expected",
                                      "std_residual", "chi2"])
    out["observed"] = out["observed"].astype("int64")
    return (out.sort_values(["c_mktsegment", "o_orderpriority"])
            .reset_index(drop=True))


def revenue_gini(sf_dir: str, *, n_buckets: int = 256, round_to: int = 6):
    """Gini coefficient of per-customer order revenue — the inequality
    summary (0 = equal, 1 = one customer owns everything), computed
    EXACTLY without a global sort.

    Distributed shape: (1) per-customer revenue groupby; (2) a bounded
    value-bucket histogram (``n_buckets`` rows) gives each bucket its
    global below-count offset (driver cumsum over the tiny histogram);
    (3) one bucket-key shuffle where each bucket group sorts locally
    and emits its partial Lorenz sum Σ(global_rank × value) — exact
    because buckets partition the value range, so global rank = bucket
    offset + local rank (ties are rank-sum invariant).
    Columns (n_customers, gini, mean_rev)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    per_cust = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="rev"))
    g = per_cust.aggregate(Min("rev", alias_name="lo"),
                           Max("rev", alias_name="hi"),
                           Sum("rev", alias_name="total"),
                           Count(alias_name="n"))
    lo, hi = float(g["lo"]), float(g["hi"])
    total, n = float(g["total"]), int(g["n"])
    width = max((hi - lo) / n_buckets, 1e-12)

    def bucketize(t: pa.Table) -> pa.Table:
        r = t["rev"].to_numpy(zero_copy_only=False)
        b = np.minimum(((r - lo) / width).astype(np.int64), n_buckets - 1)
        return pa.table({"bucket": pa.array(b), "rev": t["rev"]})

    bk = per_cust.map_batches(bucketize, batch_format="pyarrow")
    hist = bk.groupby("bucket").aggregate(Count(alias_name="c")).to_pandas()
    hist = hist.sort_values("bucket").reset_index(drop=True)
    below = np.concatenate([[0], np.cumsum(hist["c"].to_numpy())[:-1]])
    off = {int(b): int(o) for b, o in zip(hist["bucket"], below)}
    oref = ray.put(off)

    def lorenz_partial(gdf: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(oref)
        x = np.sort(gdf["rev"].to_numpy(np.float64))
        base = offs[int(gdf["bucket"].iloc[0])]
        ranks = base + np.arange(1, x.size + 1, dtype=np.float64)
        return pd.DataFrame({"s": [float((ranks * x).sum())]})

    s = float(bk.groupby("bucket")
              .map_groups(lorenz_partial, batch_format="pandas")
              .to_pandas()["s"].sum())
    gini = 2.0 * s / (n * total) - (n + 1.0) / n
    return pd.DataFrame({
        "n_customers": pd.array([n], dtype="int64"),
        "gini": [round(gini, round_to)],
        "mean_rev": [round(total / n, round_to)],
    })


def lorenz_deciles(sf_dir: str, *, tiles: int = 10, round_to: int = 6):
    """Lorenz curve by customer decile: customers are ranked by total
    order revenue, split into NTILE(10) deciles, and each decile
    reports its revenue share and the cumulative share — the
    inequality profile behind the Gini scalar.

    Distributed shape: same sort-free global-rank machinery as
    ``revenue_gini`` (bounded value-bucket histogram -> per-bucket
    below-offsets -> exact local ranks inside one bucket-key shuffle);
    tile boundaries follow SQL NTILE sizing (first n%tiles tiles get
    one extra row), ties ordered by (rev, custkey) in both engine and
    oracle.  Columns (decile, n, rev_share, cum_share)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    per_cust = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="rev"))
    g = per_cust.aggregate(Min("rev", alias_name="lo"),
                           Max("rev", alias_name="hi"),
                           Sum("rev", alias_name="total"),
                           Count(alias_name="n"))
    lo, hi = float(g["lo"]), float(g["hi"])
    total, n = float(g["total"]), int(g["n"])
    n_buckets = 256
    width = max((hi - lo) / n_buckets, 1e-12)
    base, extra = divmod(n, tiles)
    # rank r (1-based) -> tile, SQL NTILE sizing
    big_span = extra * (base + 1)

    def bucketize(t: pa.Table) -> pa.Table:
        r = t["rev"].to_numpy(zero_copy_only=False)
        b = np.minimum(((r - lo) / width).astype(np.int64), n_buckets - 1)
        return pa.table({"bucket": pa.array(b), "rev": t["rev"],
                         "o_custkey": t["o_custkey"]})

    bk = per_cust.map_batches(bucketize, batch_format="pyarrow")
    hist = bk.groupby("bucket").aggregate(Count(alias_name="c")).to_pandas()
    hist = hist.sort_values("bucket").reset_index(drop=True)
    below = np.concatenate([[0], np.cumsum(hist["c"].to_numpy())[:-1]])
    off = {int(b): int(o) for b, o in zip(hist["bucket"], below)}
    oref = ray.put(off)

    def tile_partial(gdf: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(oref)
        order = np.lexsort((gdf["o_custkey"].to_numpy(),
                            gdf["rev"].to_numpy()))
        x = gdf["rev"].to_numpy(np.float64)[order]
        ranks = offs[int(gdf["bucket"].iloc[0])] \
            + np.arange(1, x.size + 1, dtype=np.int64)
        tile = np.where(
            ranks <= big_span,
            (ranks - 1) // (base + 1) + 1,
            extra + 1 + (ranks - big_span - 1) // max(base, 1))
        df = pd.DataFrame({"tile": tile, "x": x})
        a = df.groupby("tile").agg(n=("x", "size"), s=("x", "sum"))
        return a.reset_index()

    from .dedup import _strip_meta

    # arrowify before the next shuffle: pandas-format blocks entering a
    # Ray Data groupby/aggregate are ~20x slower than Arrow blocks
    agg = (_strip_meta(bk.groupby("bucket")
                       .map_groups(tile_partial, batch_format="pandas"))
           .groupby("tile")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("s", alias_name="s")).to_pandas())
    agg = agg.sort_values("tile").reset_index(drop=True)
    share = agg["s"].to_numpy(np.float64) / total
    out = pd.DataFrame({
        "decile": agg["tile"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "rev_share": np.round(share, round_to),
        "cum_share": np.round(np.cumsum(share), round_to),
    })
    return out


def q21_supplier_blame(sf_dir: str, *, grace_days: int = 60, k: int = 20):
    """TPC-H Q21 shape: suppliers BLAMED for late multi-supplier orders
    — the supplier's line shipped late, the order has at least one
    OTHER supplier (EXISTS), and no other supplier shipped late
    (NOT EXISTS).  The canonical exists/not-exists self-join.

    Distributed shape: one orderkey-keyed shuffle of slim
    (orderkey, suppkey, late) rows joined map-side with a broadcast
    (orderkey -> orderdate) array pair would re-broadcast a big dim;
    instead orders ship their date INTO the shuffle (tagged union,
    zero broadcast) and each order group resolves blame locally in
    numpy; a final tiny supplier count groupby.  Columns
    (s_suppkey, n_blamed)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate"])

    def li_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["l_orderkey"],
            "supp": t["l_suppkey"],
            "ship": pa.array(t["l_shipdate"].to_numpy(zero_copy_only=False)
                             .astype("datetime64[us]")),
            "is_order": pa.array(np.zeros(t.num_rows, np.int64)),
        })

    def o_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t["o_orderkey"],
            "supp": pa.array(np.full(t.num_rows, -1, np.int64)),
            "ship": pa.array(t["o_orderdate"].to_numpy(zero_copy_only=False)
                             .astype("datetime64[us]")),
            "is_order": pa.array(np.ones(t.num_rows, np.int64)),
        })

    tagged = (li.map_batches(li_rows, batch_format="pyarrow")
              .union(orders.map_batches(o_rows, batch_format="pyarrow")))
    grace = np.timedelta64(grace_days, "D").astype("timedelta64[us]")

    def blame(g: pd.DataFrame) -> pd.DataFrame:
        is_o = g["is_order"].to_numpy() == 1
        if not is_o.any() or is_o.all():
            return pd.DataFrame({"s_suppkey": pd.Series(dtype="int64"),
                                 "one": pd.Series(dtype="int64")})
        odate = g["ship"].to_numpy().astype("datetime64[us]")[is_o][0]
        supp = g["supp"].to_numpy()[~is_o]
        late = g["ship"].to_numpy().astype("datetime64[us]")[~is_o] \
            > odate + grace
        u = np.unique(supp)
        if u.size < 2:
            return pd.DataFrame({"s_suppkey": pd.Series(dtype="int64"),
                                 "one": pd.Series(dtype="int64")})
        late_supp = np.unique(supp[late])
        # blamed iff exactly ONE distinct supplier shipped late on a
        # multi-supplier order (EXISTS other + NOT EXISTS other-late)
        blamed = late_supp if late_supp.size == 1 \
            else np.empty(0, np.int64)
        return pd.DataFrame({"s_suppkey": blamed.astype(np.int64),
                             "one": np.ones(blamed.size, np.int64)})

    from .dedup import _strip_meta

    out = (_strip_meta(tagged.groupby("k")
                       .map_groups(blame, batch_format="pandas"))
           .groupby("s_suppkey")
           .aggregate(Sum("one", alias_name="n_blamed")).to_pandas())
    if len(out) == 0:
        return pd.DataFrame({"s_suppkey": pd.Series(dtype="int64"),
                             "n_blamed": pd.Series(dtype="int64")})
    out["n_blamed"] = out["n_blamed"].astype("int64")
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    return (out.sort_values(["n_blamed", "s_suppkey"],
                            ascending=[False, True])
            .head(k).reset_index(drop=True))


def code_comment_density(sf_dir: str, *, round_to: int = 6):
    """Per-language comment-line density over the code corpus: the
    fraction of lines whose trimmed text starts with ``#`` or ``//``
    (language-agnostic rule so the report is comparable across langs)
    plus lines-per-file — the code-quality profile a dataset curator
    reads before weighting languages.

    Distributed shape: one column-pruned pass; line split + comment
    match are Arrow kernels (``split_pattern`` + ``match_substring_
    regex`` on the flattened values, per-file counts via offset
    diffs); a |langs|-row aggregate.  Columns (lang, n_files,
    n_lines, comment_frac, avg_lines_per_file)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..sources.corpus import corpus_path

    ds = rd.read_parquet(corpus_path(sf_dir), columns=["lang", "content"])

    def derive(t: pa.Table) -> pa.Table:
        content = t["content"].combine_chunks()
        lines = pc.split_pattern(content, pattern="\n")
        offs = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = lines.flatten()
        is_com = pc.match_substring_regex(
            flat, pattern=r"^\s*(#|//)").to_numpy(zero_copy_only=False)
        cs = np.concatenate([[0], np.cumsum(is_com.astype(np.int64))])
        n_com = cs[offs[1:] - offs[0]] - cs[offs[:-1] - offs[0]]
        n_lines = np.diff(offs)
        return pa.table({
            "lang": t["lang"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_com": pa.array(n_com, pa.int64()),
        })

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_files"),
                      Sum("n_lines", alias_name="n_lines"),
                      Sum("n_com", alias_name="n_com")).to_pandas())
    out["n_files"] = out["n_files"].astype("int64")
    out["n_lines"] = out["n_lines"].astype("int64")
    out["comment_frac"] = (out["n_com"] / out["n_lines"]).round(round_to)
    out["avg_lines_per_file"] = (out["n_lines"] / out["n_files"]) \
        .round(round_to)
    return (out[["lang", "n_files", "n_lines", "comment_frac",
                 "avg_lines_per_file"]]
            .sort_values("lang").reset_index(drop=True))


def code_callsite_topk(sf_dir: str, *, k: int = 10):
    """Per-language call-site frequency profile over the code corpus:
    the top-``k`` most-called identifiers per language (every
    ``ident(`` occurrence counts one call) — the API-usage fingerprint
    a code-dataset curator reads to spot generated/boilerplate-heavy
    languages.  No reference counterpart (code-payload extension).

    Distributed shape: one column-pruned pass; the callee extraction
    is two Arrow kernels (``split_pattern`` on ``(`` — the callee is
    the trailing identifier of every segment except each file's last —
    then one ``extract_regex``), per-batch (lang, callee) partial
    counts collapse before the shuffle, and the per-lang top-k runs
    over the aggregate (|langs| x |idents| rows, never the corpus).
    Ties (n desc, callee asc).  Columns (lang, callee, n, rk)."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..sources.corpus import corpus_path

    ds = rd.read_parquet(corpus_path(sf_dir), columns=["lang", "content"])

    def partial(t: pa.Table) -> pa.Table:
        content = pc.fill_null(t["content"], "").combine_chunks()
        segs = pc.split_pattern(content, pattern="(")
        offs = segs.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        flat = segs.flatten()
        n_segs = np.diff(offs)
        # drop each file's LAST segment: it follows no "("
        mask = np.ones(len(flat), dtype=bool)
        mask[offs[1:] - 1] = False
        callee = pc.extract_regex(
            flat, pattern=r"(?P<c>[a-z][a-z0-9_]*)\s*$")
        ok = pc.is_valid(callee).to_numpy(zero_copy_only=False) & mask
        if not ok.any():
            return pa.table({"lang": pa.array([], pa.string()),
                             "callee": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        names = pc.struct_field(callee, "c").to_numpy(zero_copy_only=False)
        langs = np.repeat(np.asarray(t["lang"].to_pylist(), dtype=object),
                          n_segs)
        df = pd.DataFrame({"lang": langs[ok], "callee": names[ok]})
        g = df.groupby(["lang", "callee"]).size().reset_index(name="n")
        return pa.table({
            "lang": pa.array(g["lang"], pa.string()),
            "callee": pa.array(g["callee"], pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["lang", "callee"])
           .aggregate(Sum("n", alias_name="n")).to_pandas())
    agg["n"] = agg["n"].astype("int64")
    agg = agg.sort_values(["lang", "n", "callee"],
                          ascending=[True, False, True], kind="mergesort")
    top = agg.groupby("lang", sort=True).head(k).reset_index(drop=True)
    top["rk"] = top.groupby("lang").cumcount().astype("int64") + 1
    return top[["lang", "callee", "n", "rk"]]


def q5_local_volume(sf_dir: str, *, year: int = 1997, round_to: int = 4):
    """TPC-H Q5 shape: revenue from orders where the CUSTOMER and the
    SUPPLIER sit in the same nation (local supply chains), grouped by
    nation — the join with an equality predicate across two dimension
    paths (c_nationkey = s_nationkey).

    Distributed shape: lineitem ⋈ orders is the one big-big hash join
    (native ``Dataset.join`` on orderkey); customer→nation and
    supplier→nation are broadcast sorted-array maps applied map-side;
    the nation filter + per-nation partial sums keep the exchange at
    |nations| rows.  Columns (n_name, revenue)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"]).to_pandas()
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nation = rd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"]).to_pandas()

    def sorted_map(keys, vals):
        k = np.asarray(keys, np.int64)
        v = np.asarray(vals, np.int64)
        o = np.argsort(k)
        return k[o], v[o]

    ck, cn = sorted_map(cust["c_custkey"], cust["c_nationkey"])
    sk, sn = sorted_map(supp["s_suppkey"], supp["s_nationkey"])
    ref = ray.put((ck, cn, sk, sn))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"]).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(yr == year)).select(
            ["o_orderkey", "o_custkey"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def li_slim(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "rev": rev})

    joined = li.map_batches(li_slim, batch_format="pyarrow").join(
        orders.map_batches(o_filter, batch_format="pyarrow"),
        join_type="inner", num_partitions=8,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def local_partial(t: pa.Table) -> pa.Table:
        ckeys, cnat, skeys, snat = ray.get(ref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        ci = np.searchsorted(ckeys, c).clip(0, ckeys.size - 1)
        si = np.searchsorted(skeys, s).clip(0, skeys.size - 1)
        ok = (ckeys[ci] == c) & (skeys[si] == s) & (cnat[ci] == snat[si])
        nat = cnat[ci][ok]
        u, inv = np.unique(nat, return_inverse=True)
        return pa.table({
            "n_nationkey": pa.array(u, pa.int64()),
            "rev": pa.array(np.bincount(inv, weights=rev[ok]),
                            pa.float64()),
        })

    agg = (joined.map_batches(local_partial, batch_format="pyarrow")
           .groupby("n_nationkey")
           .aggregate(Sum("rev", alias_name="revenue")).to_pandas())
    nm = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    agg["n_name"] = agg["n_nationkey"].map(nm)
    agg["revenue"] = agg["revenue"].round(round_to)
    return (agg[["n_name", "revenue"]]
            .sort_values(["revenue", "n_name"], ascending=[False, True])
            .reset_index(drop=True))


def q7_nation_trade(sf_dir: str, *, years=(1996, 1997), round_to: int = 4,
                    k: int = 30):
    """TPC-H Q7 shape: bilateral trade volume between DIFFERENT
    customer/supplier nations per year — the cross-dimension pair
    report (Q5's complement: c_nation <> s_nation, grouped by the
    pair).

    Distributed shape: identical machinery to ``q5_local_volume`` (one
    big-big orderkey join, broadcast nation maps, map-side pair
    partials) with a (nation_pair x year) aggregate.  Columns
    (supp_nation, cust_nation, l_year, revenue)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"]).to_pandas()
    supp = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nation = rd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"]).to_pandas()

    def sorted_map(keys, vals):
        kk = np.asarray(keys, np.int64)
        vv = np.asarray(vals, np.int64)
        o = np.argsort(kk)
        return kk[o], vv[o]

    ck, cn = sorted_map(cust["c_custkey"], cust["c_nationkey"])
    sk, sn = sorted_map(supp["s_suppkey"], supp["s_nationkey"])
    ref = ray.put((ck, cn, sk, sn))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"])

    def li_slim(t: pa.Table) -> pa.Table:
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        keep = np.isin(yr, np.asarray(years))
        t = t.filter(pa.array(keep))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_orderkey": t["l_orderkey"], "l_suppkey": t["l_suppkey"],
            "l_year": pc.year(t["l_shipdate"]),
            "rev": rev})

    joined = li.map_batches(li_slim, batch_format="pyarrow").join(
        orders, join_type="inner", num_partitions=8,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def pair_partial(t: pa.Table) -> pa.Table:
        ckeys, cnat, skeys, snat = ray.get(ref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        yr = t["l_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = t["rev"].to_numpy(zero_copy_only=False)
        ci = np.searchsorted(ckeys, c).clip(0, ckeys.size - 1)
        si = np.searchsorted(skeys, s).clip(0, skeys.size - 1)
        ok = (ckeys[ci] == c) & (skeys[si] == s) & (cnat[ci] != snat[si])
        key = (snat[si][ok] * 1000 + cnat[ci][ok]) * 10000 + yr[ok]
        u, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "pair_key": pa.array(u, pa.int64()),
            "rev": pa.array(np.bincount(inv, weights=rev[ok]),
                            pa.float64()),
        })

    agg = (joined.map_batches(pair_partial, batch_format="pyarrow")
           .groupby("pair_key")
           .aggregate(Sum("rev", alias_name="revenue")).to_pandas())
    nm = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    key = agg["pair_key"].to_numpy(np.int64)
    agg["l_year"] = (key % 10000).astype("int64")
    agg["cust_nation"] = pd.Series((key // 10000) % 1000).map(nm)
    agg["supp_nation"] = pd.Series(key // 10000000).map(nm)
    agg["revenue"] = agg["revenue"].round(round_to)
    return (agg[["supp_nation", "cust_nation", "l_year", "revenue"]]
            .sort_values(["revenue", "supp_nation", "cust_nation",
                          "l_year"], ascending=[False, True, True, True])
            .head(k).reset_index(drop=True))


def q19_disjunctive_revenue(sf_dir: str, *, round_to: int = 4):
    """TPC-H Q19 shape: revenue from lineitems matching ANY of three
    (brand, size band, quantity band) conjunctions — disjunctive
    predicate pushdown over a dimension join.

    Distributed shape: part collapses to a broadcast
    (partkey -> brand-code, size) sorted-array pair; the lineitem scan
    evaluates the three ANDed bands vectorized and ORs the masks —
    zero shuffle, one scalar row out.  Columns (revenue, n_lines)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_brand",
                                    "p_size"]).to_pandas()
    # the three disjunct arms (Q19's brand/size/qty conjunctions),
    # pinned to brand names so the SQL oracle states the same query
    named_arms = [("Brand#11", 1, 10, 1.0, 15.0),
                  ("Brand#15", 5, 20, 10.0, 25.0),
                  ("Brand#23", 10, 40, 20.0, 35.0)]
    bcode = {b: i for i, (b, *_) in enumerate(named_arms)}
    pk = part["p_partkey"].to_numpy(np.int64)
    o = np.argsort(pk)
    pk = pk[o]
    pb = part["p_brand"].map(lambda b: bcode.get(b, -1)) \
        .to_numpy(np.int64)[o]
    ps = part["p_size"].to_numpy(np.int64)[o]
    arms = [(bcode[b], slo, shi, qlo, qhi)
            for b, slo, shi, qlo, qhi in named_arms]
    ref = ray.put((pk, pb, ps))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, br, sz = ray.get(ref)
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        i = np.searchsorted(keys, p).clip(0, keys.size - 1)
        inb = keys[i] == p
        mask = np.zeros(p.size, bool)
        for b, slo, shi, qlo, qhi in arms:
            mask |= (inb & (br[i] == b) & (sz[i] >= slo) & (sz[i] <= shi)
                     & (q >= qlo) & (q <= qhi))
        rev = price[mask] * (1.0 - disc[mask])
        return pa.table({
            "rev": pa.array([float(rev.sum())], pa.float64()),
            "n": pa.array([np.int64(mask.sum())], pa.int64()),
        })

    row = (li.map_batches(partial, batch_format="pyarrow")
           .aggregate(Sum("rev", alias_name="rev"),
                      Sum("n", alias_name="n")))
    return pd.DataFrame({
        "revenue": [round(float(row["rev"]), round_to)],
        "n_lines": pd.array([int(row["n"])], dtype="int64"),
    })


def q4_order_priority(sf_dir: str, *, date_lo: str = "1996-07-01",
                      date_hi: str = "1996-10-01",
                      num_partitions: int = 8):
    """TPC-H Q4 shape: per order priority, how many orders in a
    3-month window had at least one line shipped AFTER the order date
    (the late-pipeline EXISTS probe; the synthetic lineitem has no
    commit/receipt dates, so ship>order is the late predicate).

    Distributed shape: orders are filtered + column-pruned at the
    scan, the EXISTS is ONE big-big hash join (orderkey) followed by a
    map-side ship>order filter, the per-order dedup is a keyed
    groupby over (orderkey, priority) — never a row explosion back to
    the driver — and the final count moves |priorities| rows.
    Columns (o_orderpriority, order_count)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _strip_meta

    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]))

    def o_slim(t: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64(date_lo, "us"))
        hi = pa.scalar(np.datetime64(date_hi, "us"))
        m = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                    pc.less(t["o_orderdate"], hi))
        return t.filter(m)

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"]))

    j = li.join(orders.map_batches(o_slim, batch_format="pyarrow"),
                join_type="inner", num_partitions=num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def late(t: pa.Table) -> pa.Table:
        m = pc.greater(t["l_shipdate"], t["o_orderdate"])
        f = t.filter(m)
        return pa.table({"o_orderkey": f["l_orderkey"],
                         "o_orderpriority": f["o_orderpriority"]})

    per_order = (j.map_batches(late, batch_format="pyarrow")
                 .groupby(["o_orderkey", "o_orderpriority"]).count())
    agg = (_strip_meta(per_order.select_columns(["o_orderpriority"]))
           .groupby("o_orderpriority")
           .aggregate(Count(alias_name="order_count")).to_pandas())
    agg["order_count"] = agg["order_count"].astype("int64")
    return (agg.sort_values("o_orderpriority").reset_index(drop=True)
            [["o_orderpriority", "order_count"]])


def q13_custdist(sf_dir: str):
    """TPC-H Q13 shape: the customer order-count DISTRIBUTION — how
    many customers placed exactly k orders, including the zero bucket.

    Distributed shape with NO join at all: orders aggregate to
    (custkey, n_orders) — aggregate-sized — then a second groupby
    histograms the counts; the zero bucket is total customers minus
    distinct ordering customers, two scalar aggregates.  Columns
    (c_count, custdist) ordered (custdist DESC, c_count DESC)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _strip_meta

    n_cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                             columns=["c_custkey"]).count()
    per_cust = (_strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]))
        .groupby("o_custkey").aggregate(Count(alias_name="c_count")))
    dist = (_strip_meta(per_cust.select_columns(["c_count"]))
            .groupby("c_count")
            .aggregate(Count(alias_name="custdist")).to_pandas())
    n_with_orders = int(dist["custdist"].sum())
    zero = int(n_cust) - n_with_orders
    if zero > 0:
        dist = pd.concat([dist, pd.DataFrame(
            {"c_count": [0], "custdist": [zero]})], ignore_index=True)
    dist["c_count"] = dist["c_count"].astype("int64")
    dist["custdist"] = dist["custdist"].astype("int64")
    return (dist.sort_values(["custdist", "c_count"],
                             ascending=[False, False])
            .reset_index(drop=True)[["c_count", "custdist"]])


def q15_top_supplier(sf_dir: str, *, date_lo: str = "1997-01-01",
                     date_hi: str = "1997-04-01", round_to: int = 4):
    """TPC-H Q15 shape: the supplier(s) with the MAXIMUM revenue in a
    quarter — the max-over-aggregate (view + scalar subquery) pattern.

    Distributed shape: one filtered map-side partial-sum pass over
    lineitem, a supplier-keyed groupby (aggregate-sized), the global
    max as a driver scalar over that small table, and a broadcast
    name lookup — lineitem itself never leaves its partitions.
    Ties all surface (revenue is rounded BEFORE the max comparison,
    matching the SQL).  Columns (s_suppkey, s_name, total_revenue)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _strip_meta

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                 "l_discount"]))

    def partial(t: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64(date_lo, "us"))
        hi = pa.scalar(np.datetime64(date_hi, "us"))
        m = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi))
        f = t.filter(m)
        s = f["l_suppkey"].to_numpy(zero_copy_only=False)
        rev = (f["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - f["l_discount"].to_numpy(zero_copy_only=False)))
        u, inv = np.unique(s, return_inverse=True)
        return pa.table({
            "l_suppkey": pa.array(u.astype(np.int64)),
            "rev": pa.array(np.bincount(inv, weights=rev), pa.float64()),
        })

    per_supp = (li.map_batches(partial, batch_format="pyarrow")
                .groupby("l_suppkey")
                .aggregate(Sum("rev", alias_name="total_revenue"))
                .to_pandas())
    per_supp["total_revenue"] = per_supp["total_revenue"].round(round_to)
    best = per_supp[per_supp["total_revenue"]
                    == per_supp["total_revenue"].max()].copy()
    names = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                            columns=["s_suppkey", "s_name"])
    out = best.merge(names, left_on="l_suppkey", right_on="s_suppkey")
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    return (out[["s_suppkey", "s_name", "total_revenue"]]
            .sort_values("s_suppkey").reset_index(drop=True))


def q22_sales_opportunity(sf_dir: str, *, cutoff: str = "2000-01-01",
                          round_to: int = 4, num_partitions: int = 8):
    """TPC-H Q22 shape: per nation, rich-but-lapsed customers —
    account balance above the positive-balance average AND no orders
    at-or-after ``cutoff`` (Q22's recent-activity window; on this
    synthetic corpus every customer has SOME order, so the window is
    what makes the NOT EXISTS selective) — the scalar-subquery +
    NOT EXISTS composite.

    Distributed shape: the average is one scalar aggregate (broadcast
    into the filter), the NOT EXISTS is a distributed ``left_anti``
    hash join against the DISTINCT recently-ordering customer keys
    (filtered + reduced by a groupby before the join), and the final
    rollup moves |nations| rows.  Columns
    (c_nationkey, numcust, totacctbal)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Mean, Sum

    from .dedup import _join_ready, _strip_meta

    cust = _strip_meta(rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"]))
    avg_bal = float(cust.filter(expr="c_acctbal > 0.0")
                    .aggregate(Mean("c_acctbal", alias_name="m"))["m"])
    rich = cust.filter(expr=f"c_acctbal > {avg_bal!r}")

    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"]))

    def recent(t: pa.Table) -> pa.Table:
        m = pc.greater_equal(t["o_orderdate"],
                             pa.scalar(np.datetime64(cutoff, "us")))
        return pa.table({"o_custkey": t.filter(m)["o_custkey"]})

    have_recent = (orders.map_batches(recent, batch_format="pyarrow")
                   .groupby("o_custkey").count()
                   .select_columns(["o_custkey"]))
    inactive = rich.join(_join_ready(have_recent, num_partitions),
                         "left_anti", num_partitions,
                         on=("c_custkey",), right_on=("o_custkey",))
    agg = (inactive.groupby("c_nationkey")
           .aggregate(Count(alias_name="numcust"),
                      Sum("c_acctbal", alias_name="totacctbal"))
           .to_pandas())
    if agg.empty or "numcust" not in agg.columns:
        return pd.DataFrame({"c_nationkey": pd.Series(dtype="int64"),
                             "numcust": pd.Series(dtype="int64"),
                             "totacctbal": pd.Series(dtype="float64")})
    agg["numcust"] = agg["numcust"].astype("int64")
    agg["c_nationkey"] = agg["c_nationkey"].astype("int64")
    agg["totacctbal"] = agg["totacctbal"].round(round_to)
    return (agg.sort_values("c_nationkey").reset_index(drop=True)
            [["c_nationkey", "numcust", "totacctbal"]])


def q8_market_share(sf_dir: str, *, supp_nation: str = "NATION_3",
                    cust_region: str = "EUROPE", years=(1996, 1997),
                    round_to: int = 6, num_partitions: int = 8):
    """TPC-H Q8 shape: the market share of one supplier NATION within
    the orders of one customer REGION, per year — conditional share of
    a multi-dimension join.

    Distributed shape: lineitem ⋈ orders is the single big-big hash
    join; customer→region membership and supplier→nation membership
    are broadcast sorted-key maps applied map-side; each batch emits
    per-year (volume, nation_volume) partials so the final exchange
    moves |years| rows.  Columns (o_year, mkt_share)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _strip_meta

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet")
    region = pd.read_parquet(f"{sf_dir}/region.parquet")
    rkey = int(region[region["r_name"] == cust_region]
               ["r_regionkey"].iloc[0])
    region_nations = set(nation[nation["n_regionkey"] == rkey]
                         ["n_nationkey"].astype(int))
    snat_key = int(nation[nation["n_name"] == supp_nation]
                   ["n_nationkey"].iloc[0])
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    in_region = cust[cust["c_nationkey"].isin(region_nations)]
    ck = np.sort(in_region["c_custkey"].to_numpy(np.int64))
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    sk = np.sort(supp[supp["s_nationkey"] == snat_key]
                 ["s_suppkey"].to_numpy(np.int64))
    ref = ray.put((ck, sk))

    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]))

    def o_slim(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        m = pc.is_in(yr, value_set=pa.array(list(years), pa.int64()))
        f = t.filter(m)
        return pa.table({"o_orderkey": f["o_orderkey"],
                         "o_custkey": f["o_custkey"],
                         "o_year": pc.year(f["o_orderdate"])})

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"]))

    j = li.join(orders.map_batches(o_slim, batch_format="pyarrow"),
                join_type="inner", num_partitions=num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        ckeys, skeys = ray.get(ref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        yr = t["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        vol = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        ci = np.searchsorted(ckeys, c).clip(0, max(ckeys.size - 1, 0))
        in_reg = (ckeys[ci] == c) if ckeys.size else np.zeros(c.size, bool)
        si = np.searchsorted(skeys, s).clip(0, max(skeys.size - 1, 0))
        from_nat = (skeys[si] == s) if skeys.size else np.zeros(s.size, bool)
        yr, vol, from_nat = yr[in_reg], vol[in_reg], from_nat[in_reg]
        u, inv = np.unique(yr, return_inverse=True)
        tot = np.bincount(inv, weights=vol)
        nat = np.bincount(inv, weights=np.where(from_nat, vol, 0.0))
        return pa.table({
            "o_year": pa.array(u, pa.int64()),
            "vol": pa.array(tot, pa.float64()),
            "nat_vol": pa.array(nat, pa.float64()),
        })

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby("o_year")
           .aggregate(Sum("vol", alias_name="vol"),
                      Sum("nat_vol", alias_name="nat_vol")).to_pandas())
    agg["mkt_share"] = (agg["nat_vol"] / agg["vol"]).round(round_to)
    agg["o_year"] = agg["o_year"].astype("int64")
    return (agg.sort_values("o_year").reset_index(drop=True)
            [["o_year", "mkt_share"]])


def q2_min_cost_supplier(sf_dir: str, *, round_to: int = 6,
                         buckets: int = 64):
    """TPC-H Q2 shape: for every part, the supplier offering the
    LOWEST unit price (sum price / sum quantity over their lines) —
    the per-group ARGMIN over a two-key aggregate (the synthetic
    schema has no partsupp, so lineitem is the supply relation).

    Distributed shape: one (part, supplier)-keyed aggregate over
    lineitem (two vectorized partial sums ride the groupby), then the
    per-part argmin runs through ``bucketed_apply`` keyed on the part
    (one vectorized pandas call per bucket of parts).  Unit price is
    rounded BEFORE the argmin on both engines so float summation order
    cannot flip near-ties; ties break on the smaller suppkey.  Columns
    (l_partkey, l_suppkey, unit_price)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _strip_meta

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice",
                 "l_quantity"]))

    def partial(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        key = (p.astype(np.int64) << 32) | s.astype(np.int64)
        u, inv = np.unique(key, return_inverse=True)
        price = np.bincount(
            inv, weights=t["l_extendedprice"].to_numpy(
                zero_copy_only=False))
        qty = np.bincount(
            inv, weights=t["l_quantity"].to_numpy(
                zero_copy_only=False).astype(np.float64))
        return pa.table({
            "k": pa.array(u, pa.int64()),
            "price": pa.array(price, pa.float64()),
            "qty": pa.array(qty, pa.float64()),
        })

    ps = (li.map_batches(partial, batch_format="pyarrow")
          .groupby("k")
          .aggregate(Sum("price", alias_name="price"),
                     Sum("qty", alias_name="qty")))

    def unit_price(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        part = k >> 32
        q = (t["price"].to_numpy(zero_copy_only=False)
             / t["qty"].to_numpy(zero_copy_only=False))
        # DuckDB round() is half-AWAY-from-zero; np.round is half-even,
        # and unit prices (4dp-price sums / integer quantities) land
        # exactly on .5 boundaries often enough to matter (4 of 2000
        # parts at sf0.01).  floor(x*10^n + 0.5) matches DuckDB for the
        # positive prices here.
        scale = 10.0 ** round_to
        unit = np.floor(q * scale + 0.5) / scale
        return pa.table({
            "l_partkey": pa.array(part, pa.int64()),
            "l_suppkey": pa.array(k & 0xFFFFFFFF, pa.int64()),
            "unit_price": pa.array(unit, pa.float64()),
        })

    def argmin(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["l_partkey", "unit_price", "l_suppkey"],
                          kind="mergesort")
        g = g.groupby("l_partkey", sort=False).head(1)
        return pa.table({
            "l_partkey": pa.array(g["l_partkey"].to_numpy(np.int64)),
            "l_suppkey": pa.array(g["l_suppkey"].to_numpy(np.int64)),
            "unit_price": pa.array(g["unit_price"].to_numpy(np.float64)),
        })

    out = bucketed_apply(ps.map_batches(unit_price, batch_format="pyarrow"),
                         "l_partkey", argmin, buckets=buckets).to_pandas()
    return (out.sort_values("l_partkey").reset_index(drop=True)
            [["l_partkey", "l_suppkey", "unit_price"]])


def q9_profit(sf_dir: str, *, cost_factor: float = 0.6,
              round_to: int = 4, num_partitions: int = 8):
    """TPC-H Q9 shape: profit per (supplier nation, order year) —
    profit = Σ extprice·(1-disc) − qty·cost, with cost =
    ``cost_factor``·p_retailprice standing in for ps_supplycost (the
    synthetic schema has no partsupp).

    Distributed shape: lineitem ⋈ orders (for the year) is the single
    big-big hash join; the part cost table and the supplier→nation map
    are broadcast sorted-key arrays applied map-side; each batch emits
    per-(nation, year) partials so the final exchange moves
    |nations|x|years| rows.  Columns (n_name, o_year, profit) ordered
    (n_name, o_year DESC)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _strip_meta

    part = pd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_retailprice"])
    pk = part["p_partkey"].to_numpy(np.int64)
    order = np.argsort(pk)
    pk = pk[order]
    pcost = (part["p_retailprice"].to_numpy(np.float64)[order]
             * cost_factor)
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    sk = supp["s_suppkey"].to_numpy(np.int64)
    so = np.argsort(sk)
    sk, snat = sk[so], supp["s_nationkey"].to_numpy(np.int64)[so]
    ref = ray.put((pk, pcost, sk, snat))

    orders = _strip_meta(rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"]))

    def o_slim(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_year": pc.year(t["o_orderdate"])})

    li = _strip_meta(rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"]))

    j = li.join(orders.map_batches(o_slim, batch_format="pyarrow"),
                join_type="inner", num_partitions=num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        pkeys, pcosts, skeys, snats = ray.get(ref)
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        yr = t["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)\
            .astype(np.float64)
        pi = np.searchsorted(pkeys, p).clip(0, pkeys.size - 1)
        si = np.searchsorted(skeys, s).clip(0, skeys.size - 1)
        ok = (pkeys[pi] == p) & (skeys[si] == s)
        profit = (rev - qty * pcosts[pi])[ok]
        key = snats[si][ok] * 10_000 + yr[ok]
        u, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "k": pa.array(u, pa.int64()),
            "profit": pa.array(np.bincount(inv, weights=profit),
                               pa.float64()),
        })

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby("k").aggregate(Sum("profit", alias_name="profit"))
           .to_pandas())
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    nm = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    agg["n_name"] = (agg["k"] // 10_000).astype(int).map(nm)
    agg["o_year"] = (agg["k"] % 10_000).astype("int64")
    agg["profit"] = agg["profit"].round(round_to)
    return (agg.sort_values(["n_name", "o_year"],
                            ascending=[True, False])
            .reset_index(drop=True)[["n_name", "o_year", "profit"]])
