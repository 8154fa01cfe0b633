package repro.baselines

import repro.core.{Strings, Table}

/** HoloClean-in-spirit (Rekatsinas et al. 2017; §4.3 baseline 2) run fully
  * unsupervised, i.e. with a vacuous denial constraint — exactly the setup
  * of the paper's evaluation. What remains of HoloClean without user
  * constraints is its probabilistic inference over cell-value domains:
  *
  *  - candidate domain of a cell = frequent values of its column plus the
  *    observed value;
  *  - a naive-Bayes factor model scores candidates: column prior ×
  *    co-occurrence likelihood with the row's other attributes;
  *  - a cell is marked erroneous (and repaired) when the MAP candidate
  *    differs from the observed value by a posterior-odds margin.
  *
  * Strong on categorical columns with redundancy, weak on free-format
  * strings — the behaviour reported in §5.
  */
final class HoloCleanLite(minSupport: Int = 2, oddsMargin: Double = 3.0) extends CleaningSystem {
  def name = "HoloClean"

  def clean(table: Table): Map[Int, ColumnOutcome] =
    table.cols.indices.map(c => c -> cleanColumn(table, c)).toMap

  private def cleanColumn(table: Table, c: Int): ColumnOutcome = {
    val values = table.col(c).values
    val n      = values.size
    val freq   = ColumnStats.freq(values)
    val domain = freq.filter(_._2 >= minSupport).keys.toVector.sorted
    if (domain.isEmpty) return formatOutliers(values)

    // co-occurrence tables with every other column
    val others = table.cols.indices.filter(_ != c)
    val cooc: Map[Int, Map[(String, String), Int]] = others.map { o =>
      val ov = table.col(o).values
      o -> values.indices.groupBy(r => (values(r), ov(r))).view.mapValues(_.size).toMap
    }.toMap

    def score(cand: String, row: Int): Double = {
      val prior = (freq.getOrElse(cand, 0) + 0.5) / (n + 1.0)
      val lik = others.map { o =>
        val ov    = table.col(o).values(row)
        val joint = cooc(o).getOrElse((cand, ov), 0) + 0.5
        joint / (freq.getOrElse(cand, 0) + 1.0)
      }.product
      prior * lik
    }

    val errors  = Set.newBuilder[Int]
    val repairs = Map.newBuilder[(Int), String]
    for (r <- values.indices) {
      val v = values(r)
      // only cells with weak support are candidates for repair
      if (freq(v) == 1 && domain.nonEmpty) {
        val obs  = score(v, r)
        val best = domain.map(d => d -> score(d, r)).maxBy { case (d, s) => (s, d) }
        // posterior-odds margin, tempered by edit distance (HoloClean's
        // attribute similarity factor)
        val close = Strings.lev(v, best._1) <= math.max(2, v.length / 3)
        if (best._2 > obs * oddsMargin && close && best._1 != v) {
          errors += r
          repairs += r -> best._1
        }
      }
    }
    ColumnOutcome(errors.result(), repairs.result())
  }

  /** HoloClean's standard deployments pair the inference core with error
    * detectors (outlier/format detectors à la NADEEF); in all-distinct
    * columns that detector signal is what remains: flag strong signature
    * outliers and repair to the closest value re-shaped by inference over
    * the column's dominant format.
    */
  private def formatOutliers(values: Vector[String]): ColumnOutcome = {
    val shares = ColumnStats.sigShare(values)
    if (shares.isEmpty) return ColumnOutcome(Set.empty, Map.empty)
    val (domSig, domShare) = shares.maxBy { case (s, c) => (c, s) }
    if (domShare < 0.7) return ColumnOutcome(Set.empty, Map.empty)
    val errors = values.indices.filter { r =>
      val sig = ColumnStats.coarseSig(values(r))
      sig != domSig && shares(sig) <= 0.1
    }.toSet
    val repairs = errors.iterator.flatMap { r =>
      val dist = Strings.levFrom(values(r))
      values.zipWithIndex.collect {
        case (w, i) if i != r && ColumnStats.coarseSig(w) == domSig => w
      }.sortBy(w => (dist(w), w)).headOption.map(r -> _)
    }.toMap
    ColumnOutcome(errors, repairs)
  }
}
