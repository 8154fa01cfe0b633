package repro.core.pattern

/** Splits a cell value into maximal homogeneous runs — the unit the pattern
  * learner clusters and generalizes over.
  *
  * Run kinds: digit runs, alphabetic runs (tagged with their case shape),
  * space runs, semantic-mask symbols (always length 1) and punctuation
  * (one run per code point, so delimiters stay individually repairable and
  * a surrogate pair such as an emoji stays whole).
  */
object Tokenizer {

  /** Case shape of an alphabetic run. */
  sealed trait CaseShape
  case object AllLower extends CaseShape
  case object AllUpper extends CaseShape
  /** Leading upper, rest lower — e.g. `Ind`, `Boston`. */
  case object Title    extends CaseShape
  /** Anything else, e.g. `iPhone`. */
  case object Mixed    extends CaseShape

  /** One maximal run of the input value. */
  sealed trait Run { def text: String }
  final case class DigitRun(text: String)                   extends Run
  final case class AlphaRun(text: String, shape: CaseShape) extends Run
  final case class SpaceRun(text: String)                   extends Run
  final case class MaskRun(semType: String) extends Run {
    def text: String = Masks.charFor(semType).toString
  }
  final case class PunctRun(text: String) extends Run {
    require(text.codePointCount(0, text.length) == 1, "punctuation runs are single code points")
  }

  private def shapeOf(s: String): CaseShape =
    if (s.forall(_.isLower)) AllLower
    else if (s.forall(_.isUpper)) AllUpper
    else if (s.head.isUpper && s.tail.forall(_.isLower)) Title
    else Mixed

  private def kindOf(c: Char): Int =
    if (Masks.isMask(c)) 3
    else if (c.isDigit) 0
    else if (c.isLetter) 1
    else if (c == ' ' || c == '\t') 2
    else 4 // punctuation / other

  /** Tokenize `value` into runs. Mask symbols form single-character runs,
    * punctuation single-code-point ones.
    */
  def runs(value: String): Vector[Run] = {
    if (value.isEmpty) return Vector.empty
    val out = Vector.newBuilder[Run]
    var i = 0
    while (i < value.length) {
      val c = value(i)
      val k = kindOf(c)
      if (k == 3) { out += MaskRun(Masks.typeFor(c).get); i += 1 }
      else {
        // a punctuation run is one code point; other runs extend while their kind holds
        var j = i + Character.charCount(value.codePointAt(i))
        while (k != 4 && j < value.length && kindOf(value(j)) == k) j += 1
        val text = value.substring(i, j)
        out += (k match {
          case 0 => DigitRun(text)
          case 1 => AlphaRun(text, shapeOf(text))
          case 2 => SpaceRun(text)
          case _ => PunctRun(text)
        })
        i = j
      }
    }
    out.result()
  }

  /** Clustering signature of a run: digit runs collapse to `D`, alpha runs to
    * their case shape, spaces to `S`, masks to `M:type`, punctuation to the
    * character itself. Lengths are deliberately not part of the signature.
    */
  def sigOf(r: Run): String = r match {
    case DigitRun(_)        => "D"
    case AlphaRun(_, shape) => shape match {
      case AllLower => "L"; case AllUpper => "U"; case Title => "T"; case Mixed => "A"
    }
    case SpaceRun(_)   => "S"
    case MaskRun(t)    => s"M:$t"
    case PunctRun(t)   => s"P:$t"
  }

  /** Full signature of a value — the clustering key of the pattern learner. */
  def signature(value: String): Vector[String] = runs(value).map(sigOf)
}
