package repro.baselines

import repro.core.Table

/** Auto-Detect-in-spirit (Huang & He 2018; §4.3 baseline 4): values are
  * generalized into a pattern language; a value is flagged when its
  * generalized pattern co-occurs *incompatibly* with the column's dominant
  * pattern — where compatibility statistics come from a large clean corpus.
  *
  * The original trains co-occurrence on 100M web columns; here the
  * compatible pairs are hand-written ([[AutoDetect.defaultCompatible]]),
  * which plays the same role: patterns that legitimately co-occur inside
  * clean columns (e.g. `D` with `D.D`) are whitelisted, so only truly
  * incompatible pattern pairs fire. Detection-only; repairs via
  * [[LlmRepair]].
  */
final class AutoDetect extends CleaningSystem {
  def name = "Auto-Detect"

  def clean(table: Table): Map[Int, ColumnOutcome] =
    table.cols.indices.map { c =>
      val values = table.col(c).values
      val shares = ColumnStats.sigShare(values)
      val (domSig, domShare) = shares.maxBy { case (s, cnt) => (cnt, s) }
      val errors: Set[Int] =
        if (domShare < 0.5) Set.empty // no dominant pattern, no co-occurrence signal
        else values.indices.filter { r =>
          val sig = ColumnStats.coarseSig(values(r))
          sig != domSig &&
            shares(sig) <= 0.2 &&
            !AutoDetect.defaultCompatible.contains(AutoDetect.norm(domSig, sig))
        }.toSet
      val repairs = errors.iterator.flatMap(r => LlmRepair.repair(table, c, r).map(r -> _)).toMap
      c -> ColumnOutcome(errors, repairs)
    }.toMap
}

object AutoDetect {
  /** Pattern pairs that legitimately co-occur in clean columns — the static
    * corpus statistics. Case variants of the same shape, and numeric
    * formats that mix precision, are compatible; delimiter changes are not.
    */
  val defaultCompatible: Set[(String, String)] = Seq(
    ("D", "D.D"),       // integers with decimals
    ("D", "D,D"),       // thousands separators
    ("L", "U"), ("L", "A"), ("U", "A"), ("L", "T"),
    ("U L", "L"), ("U L", "U"),
    ("U", "U U"), ("L", "L L"),  // one- vs two-word names
  ).map { case (a, b) => norm(a, b) }.toSet

  private def norm(a: String, b: String): (String, String) = if (a <= b) (a, b) else (b, a)
}
