package repro.baselines

import repro.core.{Strings, Table}

/** Deterministic capability simulator for the fine-tuned T5 baseline
  * (§4.3 baseline 6). The paper's T5 is the weakest system with by far the
  * highest fire rate (27% on Wikipedia) — a sequence model that flags and
  * rewrites anything with low likelihood under its learned column language
  * model, without access to other columns.
  *
  * We model that as a per-column character-bigram language model: cells in
  * the tail of the bigram-likelihood distribution are flagged, and repairs
  * snap to the nearest frequent value regardless of distance (the
  * "hallucinated rewrite" failure mode that drags its repair precision
  * down). Deterministic in the input.
  */
final class T5Sim extends CleaningSystem {
  def name = "T5"

  /** Share of each column, worst likelihood first, that may fire. */
  private val fireQuantile = 0.25

  def clean(table: Table): Map[Int, ColumnOutcome] =
    table.cols.indices.map { c =>
      val values = table.col(c).values
      val n = values.size
      if (n < 3) c -> ColumnOutcome(Set.empty, Map.empty)
      else {
        // a deliberately weak column language model (character unigrams):
        // the tail of its likelihood distribution is only loosely aligned
        // with true corruption, giving the paper-reported T5 profile —
        // highest fire rate, lowest precision, middling recall
        val chars  = values.flatMap(v => "^" + v + "$")
        val counts = chars.groupBy(identity).view.mapValues(_.size).toMap
        val total  = math.max(1, chars.size)

        def nll(v: String): Double = {
          val cs = ("^" + v + "$").toVector
          if (cs.isEmpty) 0.0
          else -cs.map(ch => math.log((counts.getOrElse(ch, 0) + 1.0) / (total + 64.0))).sum / cs.size
        }

        val scored = values.indices.map(r => r -> nll(values(r))).sortBy { case (r, s) => (-s, r) }
        // fire on the worst quantile (over-firing is T5's signature failure
        // mode in the paper: 27% fire rate on Wikipedia)
        val k = math.max(1, (n * fireQuantile).toInt)
        val median = scored(n / 2)._2
        val errors = scored.take(k).collect { case (r, s) if s > median * 1.02 => r }.toSet

        val frequent = ColumnStats.frequentValues(values, 2)
        val repairs = errors.iterator.flatMap { r =>
          val v = values(r)
          val dist = Strings.levFrom(v)
          // nearest frequent value — even when far (T5's rewrite behaviour)
          frequent.filter(_ != v).sortBy(w => (dist(w), w)).headOption
            .orElse(values.find(w => w != v && ColumnStats.coarseSig(w) != ColumnStats.coarseSig(v)))
            .map(w => r -> decoderNoise(v, w))
        }.toMap
        c -> ColumnOutcome(errors, repairs)
      }
    }.toMap

  /** Deterministic stand-in for sequence-decoder copy errors: roughly a
    * third of generations blend a character of the dirty input back into
    * the output (the paper's T5 correctly repairs only ~67–70% of the
    * errors it detects, Table 7).
    */
  private def decoderNoise(dirty: String, repair: String): String =
    if (math.abs(dirty.hashCode) % 3 != 0 || repair.isEmpty) repair
    else {
      val k = repair.indices.find(i => i < dirty.length && dirty(i) != repair(i))
      k.map(i => repair.updated(i, dirty(i))).getOrElse(repair)
    }
}
