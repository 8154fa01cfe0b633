package repro.baselines

import repro.core.{Strings, Table}

/** WMRR reimplementation-in-spirit (Ahmad & Wang 2020; §4.3 baseline 1):
  * unsupervised *weighted matching rectifying rules*.
  *
  * Two rule families, each weighted by support/confidence over the dirty
  * data itself:
  *  - intra-column rectification: a rare value within small edit distance of
  *    a frequent value is rectified to it (weight = neighbour frequency);
  *  - inter-column functional-dependency rules `A=a → B=b`: mined when the
  *    consequent holds with high confidence; violating cells with singleton
  *    support are rectified to the rule's consequent.
  *
  * Like the original, it captures inter- and intra-column dependencies but
  * has no semantic knowledge and no pattern generalization, so format errors
  * in all-distinct columns go undetected (§5.2).
  */
final class Wmrr extends CleaningSystem {
  def name = "WMRR"

  /** Occurrences a frequent value, or a rule's antecedent, needs, and the
    * share of an antecedent's rows its consequent must hold to be a rule.
    */
  private val minSupport    = 3
  private val minConfidence = 0.8

  def clean(table: Table): Map[Int, ColumnOutcome] = {
    val intra = table.cols.indices.map(c => c -> intraColumn(table.col(c).values)).toMap
    val inter = interColumn(table)
    table.cols.indices.map { c =>
      val merged = (intra(c).toVector ++ inter.getOrElse(c, Vector.empty))
        .groupBy(_._1).view.mapValues(_.maxBy(_._2._3)).toMap // highest-weight rule per cell
      c -> ColumnOutcome(merged.keySet, merged.view.mapValues(_._2._2).toMap)
    }.toMap
  }

  /** (row → (repair, weight)) from edit-distance rectification. A rule only
    * fires in redundant (categorical-ish) columns or when the rare value's
    * syntactic shape deviates — a rare-but-valid `Q1-2019` among frequent
    * quarters must not be "rectified".
    */
  private def intraColumn(values: Vector[String]): Map[Int, (Int, String, Double)] = {
    val freq = ColumnStats.freq(values)
    val frequent = freq.filter(_._2 >= minSupport)
    if (frequent.isEmpty) return Map.empty
    val categoricalish = freq.size.toDouble / math.max(1, values.size) < 0.5
    values.zipWithIndex.collect {
      case (v, r) if freq(v) == 1 =>
        val dist = Strings.levFrom(v)
        val near = frequent.toVector
          .filter { case (w, _) =>
            dist(w) <= (if (v.length >= 6) 2 else 1) &&
              (categoricalish || ColumnStats.coarseSig(v) != ColumnStats.coarseSig(w))
          }
          .sortBy { case (w, c) => (dist(w), -c, w) }
        near.headOption.map { case (w, c) => r -> (r, w, c.toDouble) }
    }.flatten.toMap
  }

  /** Per consequent column: row → (row, repair, weight) from FD rules. */
  private def interColumn(table: Table): Map[Int, Vector[(Int, (Int, String, Double))]] = {
    val out = scala.collection.mutable.Map.empty[Int, Vector[(Int, (Int, String, Double))]]
    for {
      a <- table.cols.indices
      b <- table.cols.indices if a != b
    } {
      val av = table.col(a).values
      val bv = table.col(b).values
      val byA = av.indices.groupBy(av)
      for ((aVal, rows) <- byA if rows.size >= minSupport) {
        val bFreq = rows.groupBy(bv).view.mapValues(_.size).toVector.sortBy(-_._2)
        val (bMaj, cnt) = bFreq.head
        val conf = cnt.toDouble / rows.size
        if (conf >= minConfidence && bFreq.size > 1) {
          for (r <- rows if bv(r) != bMaj && rows.count(x => bv(x) == bv(r)) == 1) {
            val hit = (r, (r, bMaj, cnt * conf))
            out(b) = out.getOrElse(b, Vector.empty) :+ hit
          }
        }
      }
    }
    out.toMap.map { case (c, v) => c -> v.map { case (r, t) => (r, t) } }
  }
}
