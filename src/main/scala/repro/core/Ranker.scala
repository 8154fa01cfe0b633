package repro.core

/** Heuristic candidate ranker (§3.5): a weighted linear combination of
  * (1) edit distance from the erroneous value to the repair, (2) count of
  * alphanumeric edit operations, (3) edit distance of the repair to the
  * closest non-error value in the column, and (4) coverage of the pattern
  * that generated the repair. Weights are fixed once (the paper hand-sets
  * them on a held-out set) and never tuned per benchmark.
  */
object Ranker {

  final case class Weights(wEdit: Double = 1.0, wAlnum: Double = 0.5,
                           wClosest: Double = 0.3, wCov: Double = 3.0)

  /** The fixed default weights. */
  val default: Weights = Weights()

  /** A concrete repair candidate prior to scoring. `cost` is the edit
    * program's cost in *masked* space — semantic substitutions the LLM
    * vouches for (usa → US) count as zero edits there, which is what lets a
    * semantic repair outrank a cheap-looking syntactic rewrite.
    */
  final case class Candidate(repaired: String, patternPretty: String,
                             coverage: Double, alnumEdits: Int, cost: Int)

  /** A scored candidate. */
  final case class Scored(repaired: String, patternPretty: String, coverage: Double,
                          alnumEdits: Int, cost: Int, score: Double)

  /** Rank `candidates` for `original`, best first; each candidate's `cost`
    * is its edit distance from `original` in masked space. `editDistanceOnly`
    * is the Table-9 "edit distance ranking" ablation.
    */
  def rank(original: String, candidates: Vector[Candidate], columnValues: Vector[String],
           w: Weights = default, editDistanceOnly: Boolean = false): Vector[Scored] = {
    val scored = candidates.map { c =>
      def closest = if (columnValues.isEmpty) 0 else Strings.closestLev(c.repaired, columnValues)
      val score =
        if (editDistanceOnly) -c.cost.toDouble
        else -w.wEdit * c.cost - w.wAlnum * c.alnumEdits - w.wClosest * closest + w.wCov * c.coverage
      Scored(c.repaired, c.patternPretty, c.coverage, c.alnumEdits, c.cost, score)
    }
    // dedupe identical repairs, keep the best-scoring instance
    scored.groupBy(_.repaired).values.map(_.maxBy(_.score)).toVector
      .sortBy(s => (-s.score, s.repaired))
  }
}
