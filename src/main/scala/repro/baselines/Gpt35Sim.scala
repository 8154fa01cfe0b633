package repro.baselines

import repro.core.{Strings, Table}
import repro.semantics.SemanticKB

/** Deterministic capability simulator for the few-shot GPT-3.5 baseline
  * (§4.3 baseline 7), encoding the qualitative behaviour the paper reports
  * (§5.1): strong at *semantic* outliers — misspelled entities, entities
  * rendered against the column's majority style, rare values near frequent
  * neighbours — but blind to punctuation-level syntactic patterns in
  * columns of all-distinct values (it misses `S1.4` among `S.1.2, S.2.3,
  * …`). Temperature-0, top-1: fully deterministic.
  */
final class Gpt35Sim extends CleaningSystem {
  def name = "GPT-3.5"

  def clean(table: Table): Map[Int, ColumnOutcome] =
    table.cols.indices.map { c =>
      val values = table.col(c).values
      val freq   = ColumnStats.freq(values)

      val categoricalish = freq.size.toDouble / math.max(1, values.size) < 0.5
      val errors = Set.newBuilder[Int]
      for (r <- values.indices) {
        val v = values(r)
        val others = values.patch(r, Nil, 1)
        val semanticOutlier = isSemanticOutlier(v, others)
        // snap-to-frequent reasoning only applies in redundant columns — a
        // rare-but-valid quarter among frequent quarters is not an outlier
        val freqOutlier = categoricalish && freq(v) == 1 && freq.valuesIterator.max >= 3 &&
          { val dist = Strings.levFrom(v); others.exists(w => dist(w) <= 2 && freq(w) >= 2) }
        val nullish = v.isEmpty || v.equalsIgnoreCase("n/a")
        if (semanticOutlier || freqOutlier || nullish || contentAnomaly(v, values)) errors += r
      }
      val errs = errors.result()
      val repairs = errs.iterator.flatMap(r => LlmRepair.repair(table, c, r).map(r -> _)).toMap
      c -> ColumnOutcome(errs, repairs)
    }.toMap

  /** A value containing an entity token that fuzzy-matches (but is not) a
    * known rendering, or whose rendering deviates from the column-majority
    * style of an elected semantic type.
    */
  private def isSemanticOutlier(v: String, others: Vector[String]): Boolean = {
    val tokens = "[A-Za-z][A-Za-z.]*".r.findAllIn(v).toVector
    // elect types from the rest of the column
    val electedTypes = others.flatMap(o =>
      "[A-Za-z][A-Za-z.]*".r.findAllIn(o).toVector
        .flatMap(t => SemanticKB.index.getOrElse(SemanticKB.normalize(t), Vector.empty))
        .map(_._1.semType)
    ).groupBy(identity).view.mapValues(_.size)
      .filter { case (_, cnt) => cnt >= math.max(2, others.size / 4) }.keys.toSet
    if (electedTypes.isEmpty) return false

    tokens.exists { t =>
      val exact = SemanticKB.index.getOrElse(SemanticKB.normalize(t), Vector.empty)
        .exists { case (en, _) => electedTypes.contains(en.semType) }
      if (exact) {
        // style deviation: the column renders this type differently — judge
        // against the dominant shape (≥ 70% agreement), so both misrendered
        // entities (usa among US) and legitimate minority variants are
        // flagged: the latter are GPT's characteristic false positives
        val myShape = shape(t)
        val otherShapes = others.flatMap(o => "[A-Za-z][A-Za-z.]*".r.findAllIn(o).toVector)
          .filter(w => SemanticKB.index.get(SemanticKB.normalize(w))
            .exists(_.exists { case (en, _) => electedTypes.contains(en.semType) }))
          .map(shape)
        otherShapes.nonEmpty && {
          val (domShape, cnt) = otherShapes.groupBy(identity).view.mapValues(_.size)
            .toVector.maxBy { case (s, c) => (c, s) }
          cnt.toDouble / otherShapes.size >= 0.7 && myShape != domShape
        }
      } else {
        // typo: fuzzy but not exact match to an elected type
        electedTypes.exists(et => SemanticKB.fuzzy(t, et).isDefined)
      }
    }
  }

  /** Character-level plausibility — what a sequence model is good at: runs
    * mixing digits into letters (visual typos, stray characters) and broken
    * case shapes stand out against a column of clean-run values; delimiter
    * deviations do NOT register (the §5.1 `S1.4` blind spot).
    */
  private def contentAnomaly(v: String, values: Vector[String]): Boolean = {
    def runs(s: String) = "[A-Za-z0-9]+".r.findAllIn(s).toVector
    def mixedRun(s: String) = runs(s).exists(t => t.exists(_.isDigit) && t.exists(_.isLetter))
    def brokenCase(s: String) = runs(s).exists { t =>
      val letters = t.filter(_.isLetter)
      letters.length >= 2 && !letters.forall(_.isUpper) && !letters.forall(_.isLower) &&
        !(letters.head.isUpper && letters.tail.forall(_.isLower))
    }
    val n = math.max(1, values.size)
    val mixedShare  = values.count(mixedRun).toDouble / n
    val brokenShare = values.count(brokenCase).toDouble / n
    (mixedRun(v) && mixedShare < 0.15) || (brokenCase(v) && brokenShare < 0.15)
  }

  private def shape(s: String): String = {
    val letters = s.filter(_.isLetter)
    val cas =
      if (letters.forall(_.isUpper)) "U" else if (letters.forall(_.isLower)) "l"
      else if (s.head.isUpper) "T" else "m"
    val dotted = if (s.contains('.')) "." else ""
    s"$cas$dotted${s.length}"
  }
}
