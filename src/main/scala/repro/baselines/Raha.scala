package repro.baselines

import repro.core.Table

/** Raha-in-spirit (Mahdavi et al. 2019; §4.3 baseline 3): an ensemble of
  * cheap error-detection strategies produces a feature vector per cell;
  * cells are clustered by identical vectors; the user's labels (the paper
  * provides the first 5 ground-truth errors per column) propagate to every
  * cell of a labeled cluster. Detection-only — repairs come from the
  * [[LlmRepair]] head, as in the paper's "Raha + GPT-3.5" row.
  */
final class Raha extends CleaningSystem {
  def name = "Raha"

  def clean(table: Table): Map[Int, ColumnOutcome] = cleanWithLabels(table, Map.empty)

  /** The detector ensemble: each strategy votes on a cell. */
  private[baselines] def detectorVector(values: Vector[String], r: Int): Vector[Boolean] = {
    val v     = values(r)
    val freq  = ColumnStats.freq(values)
    val sigs  = ColumnStats.sigShare(values)
    val lens  = values.map(_.length).sorted
    val medianLen = lens(lens.size / 2)

    Vector(
      // rare-value detector (only meaningful in redundant columns)
      freq(v) == 1 && freq.valuesIterator.max >= 3,
      // syntactic-signature outlier
      sigs.getOrElse(ColumnStats.coarseSig(v), 0.0) < 0.1,
      // length outlier
      math.abs(v.length - medianLen) > math.max(3, medianLen / 2),
      // null-ish detector
      v.isEmpty || v.equalsIgnoreCase("na") || v.equalsIgnoreCase("n/a") || v == "-",
      // punctuation-profile outlier
      {
        val prof = (s: String) => s.filterNot(_.isLetterOrDigit)
        val domProf = values.map(prof).groupBy(identity).view.mapValues(_.size).toVector
          .sortBy(-_._2).headOption.map(_._1).getOrElse("")
        values.count(x => prof(x) == domProf) >= values.size / 2 && prof(v) != domProf
      },
      // digit-presence outlier
      {
        val share = values.count(_.exists(_.isDigit)).toDouble / math.max(1, values.size)
        (share > 0.9 && !v.exists(_.isDigit)) || (share < 0.1 && v.exists(_.isDigit))
      },
    )
  }

  override def cleanWithLabels(table: Table, labels: Map[Int, Set[Int]]): Map[Int, ColumnOutcome] =
    table.cols.indices.map { c =>
      val values  = table.col(c).values
      val vectors = values.indices.map(r => detectorVector(values, r)).toVector
      // cluster key: detector vector + coarse signature — labels propagate
      // only within one syntactic shape (finer clusters bound recall, as in
      // the paper where Raha trails DataVinci's recall)
      val clusters = values.indices.groupBy(r => (vectors(r), ColumnStats.coarseSig(values(r))))

      val labeled = labels.getOrElse(c, Set.empty)
      // clusters containing a labeled error are all errors; with no labels,
      // fall back to majority vote of the ensemble (Raha's cold start)
      val errors: Set[Int] =
        if (labeled.nonEmpty)
          clusters.collect { case ((vec, _), rows) if vec.exists(identity) && rows.exists(labeled) => rows }
            .flatten.toSet
        else
          values.indices.filter(r => vectors(r).count(identity) >= 2).toSet

      val repairs = errors.iterator.flatMap(r => LlmRepair.repair(table, c, r).map(r -> _)).toMap
      c -> ColumnOutcome(errors, repairs)
    }.toMap
}
