//! Domain entities of the synthetic platform.
//!
//! These mirror the three record kinds the paper's collector scrapes
//! (shop data, item data, comment data — §IV-A) plus the user and order
//! metadata used by the measurement study of §V (userExpValue, client
//! information).

/// Minimum userExpValue observed on E-platform (paper §V, user aspect).
pub const MIN_USER_EXP: u64 = 100;
/// Maximum userExpValue observed on E-platform.
pub const MAX_USER_EXP: u64 = 27_158_720;

/// Purchase client, the paper's "order source" (Fig 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Client {
    /// Web browser client — dominant among fraud orders.
    Web,
    /// Android app — dominant among normal orders.
    Android,
    /// iPhone app.
    IPhone,
    /// Wechat client.
    Wechat,
}

impl Client {
    /// All client variants, in a fixed display order.
    pub const ALL: [Client; 4] = [Client::Web, Client::Android, Client::IPhone, Client::Wechat];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Client::Web => "Web",
            Client::Android => "Android",
            Client::IPhone => "iPhone",
            Client::Wechat => "Wechat",
        }
    }
}

/// Item category. The paper's §VI deployment runs CATS per category on
/// Taobao: men's clothing, women's clothing, men's shoes, women's shoes,
/// computer & office, phone & accessories, food & grocery, and sports &
/// outdoors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Men's clothing.
    MensClothing,
    /// Women's clothing.
    WomensClothing,
    /// Men's shoes.
    MensShoes,
    /// Women's shoes.
    WomensShoes,
    /// Computer & office.
    ComputerOffice,
    /// Phone & accessories.
    PhoneAccessories,
    /// Food & grocery.
    FoodGrocery,
    /// Sports & outdoors.
    SportsOutdoors,
}

impl Category {
    /// All categories, in the paper's §VI listing order.
    pub const ALL: [Category; 8] = [
        Category::MensClothing,
        Category::WomensClothing,
        Category::MensShoes,
        Category::WomensShoes,
        Category::ComputerOffice,
        Category::PhoneAccessories,
        Category::FoodGrocery,
        Category::SportsOutdoors,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::MensClothing => "men's clothing",
            Category::WomensClothing => "women's clothing",
            Category::MensShoes => "men's shoes",
            Category::WomensShoes => "women's shoes",
            Category::ComputerOffice => "computer & office",
            Category::PhoneAccessories => "phone & accessories",
            Category::FoodGrocery => "food & grocery",
            Category::SportsOutdoors => "sports & outdoors",
        }
    }

    /// Deterministic category from an item's topic index: topics are
    /// fine-grained product domains; categories group them.
    pub fn from_topic(topic: usize) -> Self {
        Category::ALL[topic % Category::ALL.len()]
    }
}

/// Ground-truth label of an item.
///
/// D1 distinguishes frauds labeled from hard evidence (financial
/// transactions between merchants and hired users) from frauds labeled by
/// Alibaba's anti-fraud experts; Table VI reports both slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemLabel {
    /// Fraud with sufficient (transaction-level) evidence.
    FraudSufficientEvidence,
    /// Fraud identified through expert manual analysis.
    FraudExpertLabeled,
    /// Normal item.
    Normal,
}

impl ItemLabel {
    /// Whether the label is either fraud variant.
    pub fn is_fraud(self) -> bool {
        !matches!(self, ItemLabel::Normal)
    }
}

/// A registered platform user.
#[derive(Debug, Clone)]
pub struct User {
    /// Dense user id.
    pub id: u32,
    /// Anonymized display name (e.g. `0***li`).
    pub nickname: String,
    /// The platform's reliability score (paper: userExpValue; min 100,
    /// max 27,158,720 — low values mean low reliability).
    pub exp_value: u64,
    /// Whether this user belongs to a hired promotion pool (latent ground
    /// truth, never exposed through the public API).
    pub hired: bool,
}

/// A third-party shop.
#[derive(Debug, Clone)]
pub struct Shop {
    /// Dense shop id.
    pub id: u32,
    /// Shop display name.
    pub name: String,
    /// Public shop URL on the synthetic site.
    pub url: String,
}

/// One comment, attached to the order that produced it (on the modeled
/// platforms only buyers can comment, so a comment record doubles as an
/// order record — paper §V "order aspect").
#[derive(Debug, Clone)]
pub struct Comment {
    /// Dense comment id (platform-wide).
    pub id: u64,
    /// Id of the commenting (purchasing) user.
    pub user_id: u32,
    /// Client the order was placed from.
    pub client: Client,
    /// Order timestamp, `YYYY-MM-DD HH:MM:SS`.
    pub date: String,
    /// Comment text in the synthetic platform language.
    pub content: String,
}

/// An item listed by a shop, with its full public comment history.
#[derive(Debug, Clone)]
pub struct Item {
    /// Dense item id (platform-wide).
    pub id: u64,
    /// Owning shop.
    pub shop_id: u32,
    /// Item display name.
    pub name: String,
    /// List price in cents.
    pub price_cents: u64,
    /// Public sales volume counter.
    pub sales_volume: u64,
    /// Item category (paper §VI: detection runs per category).
    pub category: Category,
    /// Ground-truth label (latent; exposed only to evaluation code).
    pub label: ItemLabel,
    /// All comments, in posting order.
    pub comments: Vec<Comment>,
}

impl Item {
    /// Borrowed comment contents, the input shape of the CATS feature
    /// extractor.
    pub fn comment_texts(&self) -> Vec<&str> {
        self.comments.iter().map(|c| c.content.as_str()).collect()
    }
}

/// Formats a synthetic order timestamp from a day offset and an
/// intra-day minute, anchored at 2017-09-01 (the paper's data is from
/// late 2017).
pub fn format_date(day_offset: u32, minute_of_day: u32) -> String {
    // 30-day months keep the arithmetic trivial; these timestamps are
    // synthetic labels, not calendar math.
    let month = 9 + day_offset / 30;
    let day = 1 + day_offset % 30;
    let hour = (minute_of_day / 60) % 24;
    let minute = minute_of_day % 60;
    format!("2017-{month:02}-{day:02} {hour:02}:{minute:02}:00")
}

/// Builds an anonymized nickname like `a***x` from a user id,
/// mirroring the masked nicknames in the paper's Table VII.
pub fn anonymized_nickname(id: u32) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let first = ALPHABET[(id as usize) % ALPHABET.len()] as char;
    let last = ALPHABET[(id as usize / ALPHABET.len()) % ALPHABET.len()] as char;
    format!("{first}***{last}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_names_and_order() {
        assert_eq!(Client::ALL.len(), 4);
        assert_eq!(Client::Web.name(), "Web");
        assert_eq!(Client::IPhone.name(), "iPhone");
    }

    #[test]
    fn label_fraud_predicate() {
        assert!(ItemLabel::FraudSufficientEvidence.is_fraud());
        assert!(ItemLabel::FraudExpertLabeled.is_fraud());
        assert!(!ItemLabel::Normal.is_fraud());
    }

    #[test]
    fn date_formatting() {
        assert_eq!(format_date(0, 0), "2017-09-01 00:00:00");
        assert_eq!(format_date(9, 12 * 60 + 10), "2017-09-10 12:10:00");
        assert_eq!(format_date(30, 61), "2017-10-01 01:01:00");
    }

    #[test]
    fn categories_cover_papers_eight() {
        assert_eq!(Category::ALL.len(), 8);
        assert_eq!(Category::MensClothing.name(), "men's clothing");
        assert_eq!(Category::from_topic(0), Category::from_topic(8));
        assert_ne!(Category::from_topic(0), Category::from_topic(1));
    }

    #[test]
    fn nickname_shape() {
        let n = anonymized_nickname(12345);
        assert_eq!(n.len(), 5);
        assert!(n.contains("***"));
        // deterministic
        assert_eq!(n, anonymized_nickname(12345));
    }

    #[test]
    fn comment_texts_borrow() {
        let item = Item {
            id: 1,
            shop_id: 2,
            name: "x".into(),
            price_cents: 100,
            sales_volume: 10,
            category: Category::FoodGrocery,
            label: ItemLabel::Normal,
            comments: vec![Comment {
                id: 1,
                user_id: 3,
                client: Client::Web,
                date: format_date(0, 0),
                content: "hao".into(),
            }],
        };
        assert_eq!(item.comment_texts(), vec!["hao"]);
    }
}
