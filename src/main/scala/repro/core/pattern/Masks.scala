package repro.core.pattern

/** Semantic-mask symbol registry.
  *
  * After semantic abstraction (§3.2) a masked substring is replaced by a
  * single symbol `m_x` that the pattern learner and edit engine treat as one
  * character of a dedicated "class". We reserve a slice of the Unicode
  * Private Use Area for these symbols so every string algorithm in the
  * repair engine keeps operating over plain `String`s.
  */
object Masks {
  /** First code point of the mask range (Unicode PUA). */
  val Base: Char = '\uE000'

  /** The semantic types we mask — the 20 most frequent Sherlock types the
    * paper keeps (§3.2). Index order defines the mask code point.
    */
  val SemanticTypes: Vector[String] = Vector(
    "name", "country", "city", "state", "company", "day", "month",
    "color", "currency", "language", "team", "sport", "brand", "gender",
    "nationality", "region", "continent", "weekday", "product", "category"
  )

  private val typeToChar: Map[String, Char] =
    SemanticTypes.zipWithIndex.map { case (t, i) => t -> (Base + i).toChar }.toMap

  /** One past the last mask symbol. */
  private val End: Int = Base + SemanticTypes.length

  /** Mask symbol for a semantic type; the type must be registered. */
  def charFor(semType: String): Char =
    typeToChar.getOrElse(semType.toLowerCase,
      throw new IllegalArgumentException(s"unknown semantic type: $semType"))

  /** Semantic type of a mask symbol, if `c` is one. */
  def typeFor(c: Char): Option[String] = if (isMask(c)) Some(SemanticTypes(c - Base)) else None

  /** True iff `c` is a semantic-mask symbol. */
  def isMask(c: Char): Boolean = c >= Base && c < End

  /** Human-readable rendering of a masked string (for logs and tests). */
  def show(s: String): String =
    s.flatMap(c => typeFor(c).map(t => s"{$t}").getOrElse(c.toString))
}
